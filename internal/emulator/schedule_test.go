package emulator

import (
	"errors"
	"testing"

	"schematic/internal/ir"
)

func probeStep(step int64) Probe { return Probe{Kind: PointStep, Step: step, Occurrence: step} }

func TestParsePointKindRoundtrip(t *testing.T) {
	for _, k := range []PointKind{PointStep, PointBeforeSave, PointMidSave, PointAfterSave} {
		got, err := ParsePointKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParsePointKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := ParsePointKind("charge"); err == nil {
		t.Errorf("ParsePointKind accepted the physics-only kind")
	}
	if _, err := ParsePointKind("bogus"); err == nil {
		t.Errorf("ParsePointKind accepted garbage")
	}
}

func TestTraceScheduleLatchesAndCoalesces(t *testing.T) {
	s := TraceSchedule(
		FailPoint{Kind: PointStep, N: 5},
		FailPoint{Kind: PointStep, N: 5}, // duplicate: must coalesce into one failure
		FailPoint{Kind: PointBeforeSave, N: 2},
	)
	if s.Fail(probeStep(4)) {
		t.Fatalf("fired before its step")
	}
	if !s.Fail(probeStep(5)) {
		t.Fatalf("did not fire at its step")
	}
	if s.Fail(probeStep(5)) || s.Fail(probeStep(6)) {
		t.Fatalf("step point fired twice")
	}
	// The save point is independent and addressed by its own ordinal.
	if s.Fail(Probe{Kind: PointBeforeSave, Occurrence: 1}) {
		t.Fatalf("save point fired early")
	}
	if !s.Fail(Probe{Kind: PointBeforeSave, Occurrence: 2}) {
		t.Fatalf("save point did not fire")
	}
	if s.Fail(Probe{Kind: PointBeforeSave, Occurrence: 3}) {
		t.Fatalf("save point fired twice")
	}
}

// TestTraceScheduleSemantics: each point fires at the first probe of its
// kind whose ordinal reaches N, in whatever order the points are given;
// points that hit one probe coalesce into one failure; a point past the
// run's last probe never fires.
func TestTraceScheduleSemantics(t *testing.T) {
	type probe struct {
		kind       PointKind
		step, occ  int64
		wantToFail bool
	}
	step := func(n int64, fail bool) probe { return probe{PointStep, n, n, fail} }
	cases := []struct {
		name   string
		points []FailPoint
		probes []probe
	}{
		{"unsorted input",
			[]FailPoint{{PointStep, 9}, {PointStep, 3}, {PointStep, 6}},
			[]probe{step(2, false), step(3, true), step(4, false), step(6, true), step(8, false), step(9, true), step(10, false)}},
		{"duplicate points",
			[]FailPoint{{PointStep, 4}, {PointStep, 4}, {PointStep, 4}},
			[]probe{step(3, false), step(4, true), step(4, false), step(5, false)}},
		{"skipped ordinals coalesce",
			[]FailPoint{{PointStep, 5}, {PointStep, 3}},
			[]probe{step(2, false), step(7, true), step(8, false)}},
		{"interleaved kinds",
			[]FailPoint{{PointMidSave, 2}, {PointStep, 5}, {PointBeforeSave, 1}, {PointStep, 2}},
			[]probe{
				step(1, false), {PointBeforeSave, 1, 1, true}, step(2, true),
				{PointMidSave, 2, 1, false}, step(4, false), {PointBeforeSave, 4, 2, false},
				{PointMidSave, 4, 2, true}, step(5, true), {PointMidSave, 6, 3, false},
			}},
		{"past the last probe",
			[]FailPoint{{PointStep, 100}, {PointAfterSave, 9}},
			[]probe{step(1, false), step(50, false), {PointAfterSave, 50, 8, false}}},
		{"charge ordinals sharing a step",
			[]FailPoint{{PointCharge, 4}, {PointCharge, 2}},
			[]probe{
				{PointCharge, 1, 1, false}, {PointCharge, 2, 2, true}, {PointCharge, 2, 3, false},
				{PointCharge, 2, 4, true}, step(3, false), {PointCharge, 3, 5, false},
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := TraceSchedule(tc.points...)
			for i, p := range tc.probes {
				got := s.Fail(Probe{Kind: p.kind, Step: p.step, Occurrence: p.occ})
				if got != p.wantToFail {
					t.Errorf("probe %d (%v@%d, step %d): fail = %v, want %v", i, p.kind, p.occ, p.step, got, p.wantToFail)
				}
			}
		})
	}
}

// TestChargePointAddressesDrawOrdinal: a charge point names the run's
// draw ordinal, not its step. Several draws share a checkpoint's step,
// and the failure lands on the addressed one.
func TestChargePointAddressesDrawOrdinal(t *testing.T) {
	cfg := baseCfg()
	cfg.Intermittent = true
	cfg.EB = 1e9
	var draws []Event
	cfg.Observer = obsFn(func(e Event) {
		if e.Kind == EvCharge {
			draws = append(draws, e)
		}
	})
	if _, err := Run(loopProgram(t, 20, 1, true), cfg); err != nil {
		t.Fatal(err)
	}
	var target Event
	for i, e := range draws {
		if e.Point != PointCharge || e.Seq != int64(i+1) {
			t.Fatalf("draw %d: point %v seq %d, want charge ordinal %d", i, e.Point, e.Seq, i+1)
		}
		if i > 0 && draws[i-1].Step == e.Step && target.Seq == 0 {
			target = e
		}
	}
	if target.Seq == 0 || target.Seq == target.Step {
		t.Fatalf("no draw sharing its step with an earlier one (target %+v)", target)
	}

	cfg.Schedule = Schedules(Exhaustion(), TraceSchedule(FailPoint{Kind: PointCharge, N: target.Seq}))
	var fails []Event
	cfg.Observer = obsFn(func(e Event) {
		if e.Kind == EvPowerFailure {
			fails = append(fails, e)
		}
	})
	res, err := Run(loopProgram(t, 20, 1, true), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Completed || res.InjectedFailures != 0 || len(fails) != 1 {
		t.Fatalf("verdict %v, injected %d, failures %d: want one replayed refusal", res.Verdict, res.InjectedFailures, len(fails))
	}
	if f := fails[0]; f.Point != PointCharge || f.Seq != target.Seq || f.Step != target.Step || f.Energy != target.Energy {
		t.Errorf("failure at %v@%d step %d draw %g, want charge@%d step %d draw %g",
			f.Point, f.Seq, f.Step, f.Energy, target.Seq, target.Step, target.Energy)
	}
}

// TestTraceScheduleFiresPastTarget covers recovery jitter: when the exact
// occurrence is skipped (e.g. the run re-executes a shorter path), the
// point still fires at the first occurrence at or past N.
func TestTraceScheduleFiresPastTarget(t *testing.T) {
	s := TraceSchedule(FailPoint{Kind: PointStep, N: 10})
	if s.Fail(probeStep(9)) {
		t.Fatalf("fired early")
	}
	if !s.Fail(probeStep(12)) {
		t.Fatalf("did not fire past its target")
	}
}

func TestRandomScheduleDeterministicAndBounded(t *testing.T) {
	fires := func(seed int64, max int) []int64 {
		s := RandomSchedule(seed, 10, max)
		var out []int64
		for step := int64(1); step <= 500; step++ {
			if s.Fail(probeStep(step)) {
				out = append(out, step)
			}
		}
		return out
	}
	a, b := fires(7, 4), fires(7, 4)
	if len(a) != 4 {
		t.Fatalf("maxFailures not honored: %d fires", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged: %v vs %v", a, b)
		}
	}
	if c := fires(8, 4); len(c) == len(a) && c[0] == a[0] && c[1] == a[1] && c[2] == a[2] && c[3] == a[3] {
		t.Errorf("different seeds produced the identical schedule %v", c)
	}
	if unlimited := fires(7, 0); len(unlimited) <= 4 {
		t.Errorf("maxFailures=0 should be unlimited, got %d fires", len(unlimited))
	}
}

func TestStrideSchedule(t *testing.T) {
	s := StrideSchedule(10, 2)
	var out []int64
	for step := int64(1); step <= 100; step++ {
		if s.Fail(probeStep(step)) {
			out = append(out, step)
		}
	}
	if len(out) != 2 || out[0] != 10 || out[1] != 20 {
		t.Errorf("stride fires = %v, want [10 20]", out)
	}
	// Non-PointStep probes are ignored.
	s2 := StrideSchedule(1, 0)
	if s2.Fail(Probe{Kind: PointCharge, Step: 50}) {
		t.Errorf("stride fired on a charge probe")
	}
}

func TestSchedulesComposition(t *testing.T) {
	if Schedules() != nil || Schedules(nil, nil) != nil {
		t.Errorf("empty composition should be nil")
	}
	ex := Exhaustion()
	if got := Schedules(nil, ex); got != ex {
		t.Errorf("single-member composition should return the member")
	}
	combo := Schedules(ex, Periodic(100))
	if combo.Name() != "exhaustion+periodic(100)" {
		t.Errorf("combo name = %q", combo.Name())
	}
	// Nested combos flatten.
	flat := Schedules(combo, StrideSchedule(5, 1))
	if flat.Name() != "exhaustion+periodic(100)+stride(5)" {
		t.Errorf("flattened name = %q", flat.Name())
	}
}

func TestSplitExhaustion(t *testing.T) {
	split := func(s PowerSchedule) (*Capacitor, PowerSchedule) {
		return splitExhaustion(Config{Intermittent: true, Schedule: s})
	}
	if c, rest := splitExhaustion(Config{Schedule: Exhaustion()}); c != nil || rest != nil {
		t.Errorf("continuous: got %v, %v", c, rest)
	}
	if c, rest := split(nil); c == nil || *c != (Capacitor{}) || rest != nil {
		t.Errorf("default: got %v, %v", c, rest)
	}
	if c, rest := split(Exhaustion()); c == nil || *c != (Capacitor{}) || rest != nil {
		t.Errorf("exhaustion alone: got %v, %v", c, rest)
	}
	p := Periodic(50)
	if c, rest := split(Schedules(Exhaustion(), p)); c == nil || rest != p {
		t.Errorf("exhaustion+periodic: got %v, %v", c, rest)
	}
	tr := TraceSchedule(FailPoint{Kind: PointStep, N: 3})
	if c, rest := split(Schedules(Exhaustion(), p, tr)); c == nil || rest == nil || rest.Name() != "periodic(50)+"+tr.Name() {
		t.Errorf("three-way split: got %v, %v", c, rest)
	}
	if c, rest := split(tr); c != nil || rest != tr {
		t.Errorf("trace alone: got %v, %v", c, rest)
	}
	// A sized capacitor is split out the same way, wherever it sits.
	sized := Capacitor{Capacity: 900, Restart: 0.5}
	if c, rest := split(Schedules(p, sized)); c == nil || *c != sized || rest != p {
		t.Errorf("periodic+sized capacitor: got %v, %v", c, rest)
	}
}

func TestConfigValidate(t *testing.T) {
	model := baseCfg().Model
	valid := Config{Model: model}
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []struct {
		name  string
		field string
		cfg   Config
	}{
		{"nil model", "Model", Config{}},
		{"negative EB", "EB", Config{Model: model, EB: -1}},
		{"intermittent without EB", "EB", Config{Model: model, Intermittent: true}},
		{"negative VM size", "VMSize", Config{Model: model, VMSize: -2048}},
		{"negative max steps", "MaxSteps", Config{Model: model, MaxSteps: -1}},
		{"negative max failures", "MaxFailures", Config{Model: model, MaxFailures: -1}},
		{"two capacitors", "Schedule", Config{Model: model, Intermittent: true, EB: 100,
			Schedule: Schedules(Exhaustion(), Periodic(9), Capacitor{Capacity: 50})}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if err == nil {
				t.Fatalf("accepted")
			}
			if !errors.Is(err, ErrInvalidConfig) {
				t.Errorf("error does not unwrap to ErrInvalidConfig: %v", err)
			}
			var ce *ConfigError
			if !errors.As(err, &ce) || ce.Field != tc.field {
				t.Errorf("error = %v, want ConfigError for field %s", err, tc.field)
			}
			// Run must reject the same configs (with a runnable module).
			if _, err := Run(loopProgram(t, 3, 0, false), tc.cfg); err == nil {
				t.Errorf("Run accepted the invalid config")
			}
		})
	}
}

func TestOutOfFailuresVerdict(t *testing.T) {
	// Rollback checkpoints every iteration make steady progress, so the
	// stride failures never trip the stagnation watchdog; the failure
	// budget is what gives out.
	m := ratchetLoopProgram(t, 200)
	cfg := baseCfg()
	cfg.Intermittent = true
	cfg.EB = 1e9
	cfg.MaxFailures = 5
	cfg.Schedule = Schedules(Exhaustion(), StrideSchedule(30, 0))
	res, err := Run(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != OutOfFailures {
		t.Fatalf("verdict = %v, want out-of-failures (failures=%d)", res.Verdict, res.PowerFailures)
	}
	if res.Verdict.String() != "out-of-failures" {
		t.Errorf("String() = %q", res.Verdict.String())
	}
	if res.PowerFailures != cfg.MaxFailures+1 {
		t.Errorf("failures = %d, want %d", res.PowerFailures, cfg.MaxFailures+1)
	}
}

// TestInjectedStepFailureRecovers: a single injected instruction-boundary
// failure rolls back to the last snapshot and the run still completes
// with the oracle output.
func TestInjectedStepFailureRecovers(t *testing.T) {
	m := ratchetLoopProgram(t, 50)
	cfg := baseCfg()
	cfg.Intermittent = true
	cfg.EB = 1e9
	cfg.Schedule = Schedules(Exhaustion(), TraceSchedule(FailPoint{Kind: PointStep, N: 123}))
	res, err := Run(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Completed || res.Output[0] != 1225 {
		t.Fatalf("verdict=%v output=%v", res.Verdict, res.Output)
	}
	if res.PowerFailures != 1 || res.InjectedFailures != 1 {
		t.Errorf("failures=%d injected=%d, want 1/1", res.PowerFailures, res.InjectedFailures)
	}
	if res.Energy.Reexecution == 0 {
		t.Errorf("rollback after the injected failure should pay re-execution energy")
	}
}

// TestTornSaveSemantics: a mid-save failure charges the save energy but
// commits nothing — no snapshot advance, no Saves increment — and the run
// still completes correctly from the previous recovery point.
func TestTornSaveSemantics(t *testing.T) {
	m := loopProgram(t, 20, 1, true)
	base := baseCfg()
	base.Intermittent = true
	base.EB = 1e9

	clean, err := Run(m, base)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Verdict != Completed {
		t.Fatalf("clean verdict = %v", clean.Verdict)
	}
	if clean.SaveAttempts != int64(clean.Saves) {
		t.Fatalf("clean run: attempts=%d saves=%d, want equal", clean.SaveAttempts, clean.Saves)
	}

	torn := base
	torn.Schedule = Schedules(Exhaustion(), TraceSchedule(FailPoint{Kind: PointMidSave, N: 5}))
	res, err := Run(m, torn)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Completed || res.Output[0] != clean.Output[0] {
		t.Fatalf("torn run: verdict=%v output=%v, want %v", res.Verdict, res.Output, clean.Output)
	}
	if res.InjectedFailures != 1 {
		t.Fatalf("injected = %d, want 1", res.InjectedFailures)
	}
	// The torn attempt is counted but its save is not.
	if res.SaveAttempts != int64(res.Saves)+1 {
		t.Errorf("attempts=%d saves=%d, want attempts = saves+1", res.SaveAttempts, res.Saves)
	}
	// The wasted save energy still hit the Save bucket.
	if res.Energy.Save <= clean.Energy.Save {
		t.Errorf("torn save energy %.1f not above clean %.1f", res.Energy.Save, clean.Energy.Save)
	}
}

// TestSavePhaseInjectionPoints drives each save-phase point and checks
// the run recovers and completes correctly.
func TestSavePhaseInjectionPoints(t *testing.T) {
	for _, kind := range []PointKind{PointBeforeSave, PointMidSave, PointAfterSave} {
		t.Run(kind.String(), func(t *testing.T) {
			m := loopProgram(t, 20, 1, true)
			cfg := baseCfg()
			cfg.Intermittent = true
			cfg.EB = 1e9
			cfg.Schedule = Schedules(Exhaustion(), TraceSchedule(FailPoint{Kind: kind, N: 3}))
			res, err := Run(m, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Verdict != Completed || res.Output[0] != 190 {
				t.Fatalf("verdict=%v output=%v failures=%d", res.Verdict, res.Output, res.PowerFailures)
			}
			if res.InjectedFailures != 1 {
				t.Errorf("injected = %d, want 1", res.InjectedFailures)
			}
		})
	}
}

// TestInjectionEvents: schedule-induced failures emit EvInjection with
// the point kind and ordinal immediately before their EvPowerFailure.
// Failures at a charge — the capacitor refusing a draw, or a replay of
// that — are physics: no EvInjection, no InjectedFailures, and their
// EvPowerFailure carries the refused draw.
func TestInjectionEvents(t *testing.T) {
	m := ratchetLoopProgram(t, 50)
	cfg := baseCfg()
	cfg.Intermittent = true
	cfg.EB = 1e9
	cfg.Schedule = Schedules(Exhaustion(), TraceSchedule(FailPoint{Kind: PointStep, N: 60}))
	var events []Event
	cfg.Observer = obsFn(func(e Event) {
		if e.Kind == EvInjection || e.Kind == EvPowerFailure {
			events = append(events, e)
		}
	})
	if _, err := Run(m, cfg); err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("events = %d, want EvInjection + EvPowerFailure", len(events))
	}
	if events[0].Kind != EvInjection || events[0].Point != PointStep || events[0].Seq != 60 {
		t.Errorf("injection event = %+v", events[0])
	}
	if events[1].Kind != EvPowerFailure {
		t.Errorf("second event = %v, want power-failure", events[1].Kind)
	}

	for _, tc := range []struct {
		eb    float64
		sched PowerSchedule
	}{
		{1500, nil}, // the capacitor refuses
		{1e9, Schedules(Exhaustion(), TraceSchedule(FailPoint{Kind: PointCharge, N: 40}))}, // a replayed refusal
	} {
		cfg2 := baseCfg()
		cfg2.Intermittent = true
		cfg2.EB = tc.eb
		cfg2.Schedule = tc.sched
		saw := false
		cfg2.Observer = obsFn(func(e Event) {
			if e.Kind == EvInjection {
				saw = true
			}
			if e.Kind == EvPowerFailure && e.Energy <= 0 {
				t.Errorf("EB=%g: power failure without its refused draw: %+v", tc.eb, e)
			}
		})
		res, err := Run(ratchetLoopProgram(t, 50), cfg2)
		if err != nil {
			t.Fatal(err)
		}
		if res.PowerFailures == 0 {
			t.Fatalf("EB=%g: expected failures at a charge", tc.eb)
		}
		if saw || res.InjectedFailures != 0 {
			t.Errorf("EB=%g: charge failures must not count as injections (saw=%v injected=%d)", tc.eb, saw, res.InjectedFailures)
		}
	}
}

type obsFn func(Event)

func (f obsFn) Event(e Event) { f(e) }

// TestStuckDeterministicAcrossSchedules: Stuck detection is a property
// of the placement and energy budget, not of the failure schedule — a
// program trapped under plain exhaustion is declared Stuck (never
// OutOfSteps) under every random schedule seed as well.
func TestStuckDeterministicAcrossSchedules(t *testing.T) {
	build := func() *ir.Module {
		m := loopProgram(t, 1000, -1, false)
		entry := m.FuncByName("main").Entry()
		entry.Instrs = entry.Instrs[1:] // no checkpoints: no recovery point
		return m
	}
	base := baseCfg()
	base.Intermittent = true
	base.EB = 2000 // far below total consumption
	base.MaxSteps = 200_000

	res, err := Run(build(), base)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Stuck {
		t.Fatalf("exhaustion-only verdict = %v, want stuck", res.Verdict)
	}

	for seed := int64(1); seed <= 15; seed++ {
		cfg := base
		cfg.Schedule = Schedules(Exhaustion(), RandomSchedule(seed, 40, 0))
		res, err := Run(build(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Verdict != Stuck {
			t.Fatalf("seed %d: verdict = %v (steps=%d failures=%d), want stuck",
				seed, res.Verdict, res.Steps, res.PowerFailures)
		}
	}
}
