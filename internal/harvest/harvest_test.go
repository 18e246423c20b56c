package harvest

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"schematic/internal/baselines"
	"schematic/internal/bench"
	"schematic/internal/emulator"
	"schematic/internal/ir"
)

// placed compiles, profiles, and checkpoints one benchmark with the
// first applicable technique, returning the placed module, its EB for
// TBPF 10k, and inputs.
func placed(t *testing.T, h *bench.Harness, bm *bench.Benchmark) (*ir.Module, float64, map[string][]int64) {
	t.Helper()
	m, eb, inputs := placedWith(t, h, bm, "")
	if m == nil {
		t.Fatalf("%s: no technique applies", bm.Name)
	}
	return m, eb, inputs
}

// placedWith is placed for the named technique ("" = the first that
// applies). The module is nil when the technique declines.
func placedWith(t *testing.T, h *bench.Harness, bm *bench.Benchmark, tech string) (*ir.Module, float64, map[string][]int64) {
	t.Helper()
	m, err := bm.Module()
	if err != nil {
		t.Fatal(err)
	}
	prof, err := h.Profile(context.Background(), bm)
	if err != nil {
		t.Fatal(err)
	}
	eb := prof.EBForTBPF(10_000)
	inputs, err := bm.Inputs(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range bench.Techniques() {
		if tech != "" && tt.Name() != tech || !tt.SupportsVM(m, h.VMSize) {
			continue
		}
		clone := ir.Clone(m)
		if err := tt.Apply(clone, baselines.Params{
			Model: h.Model, Budget: eb, VMSize: h.VMSize, Profile: prof,
		}); err != nil {
			continue
		}
		return clone, eb, inputs
	}
	return nil, 0, nil
}

func testBenches(t *testing.T) []*bench.Benchmark {
	t.Helper()
	bms, err := bench.All()
	if err != nil {
		t.Fatal(err)
	}
	if testing.Short() {
		short := bms[:0]
		for _, bm := range bms {
			if bm.Name == "crc" || bm.Name == "randmath" {
				short = append(short, bm)
			}
		}
		bms = short
	}
	return bms
}

func runCfg(t *testing.T, m *ir.Module, eb float64, inputs map[string][]int64, sched emulator.PowerSchedule, observer emulator.Observer) *emulator.Result {
	t.Helper()
	res, err := emulator.Run(m, emulator.Config{
		Model: bench.NewHarness().Model, VMSize: 1 << 20,
		Intermittent: true, EB: eb, Inputs: inputs, Schedule: sched, Observer: observer,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// Same seed, fresh schedule instances: the whole run — verdict,
// counters, ledger, and the exact recorded failure sequence — must be
// identical. A different seed must still produce a sound run.
func TestHarvestDeterminism(t *testing.T) {
	h := bench.NewHarness()
	h.ProfileRuns = 3
	bms := testBenches(t)
	envs := func(seed int64) []Environment {
		return []Environment{
			Solar{Seed: seed, Period: 400_000},
			RF{Seed: seed},
			Duty{},
		}
	}
	for _, bm := range bms {
		m, eb, inputs := placed(t, h, bm)
		for _, env := range envs(7) {
			c := Capacitor{Env: env, Capacity: eb}
			rec1 := NewRecorder(c.Schedule(), eb)
			rec2 := NewRecorder(c.Schedule(), eb)
			res1 := runCfg(t, m, eb, inputs, c.Schedule(), rec1)
			res2 := runCfg(t, m, eb, inputs, c.Schedule(), rec2)
			label := fmt.Sprintf("%s/%s", bm.Name, env.Name())
			if !reflect.DeepEqual(res1, res2) {
				t.Fatalf("%s: same seed, different results:\n%+v\n%+v", label, res1, res2)
			}
			if !reflect.DeepEqual(rec1.Trace().Records, rec2.Trace().Records) {
				t.Fatalf("%s: same seed, different failure sequences", label)
			}
			if res1.Verdict != emulator.Completed {
				t.Fatalf("%s: verdict %v under default harvest sizing", label, res1.Verdict)
			}
		}
	}
}

// With Capacity = EB, Restart = 1, harvesting only ever adds energy on
// top of the machine's own refill level, so a harvested run must never
// see more power failures than the plain-exhaustion run — the property
// that keeps wait-style placements' zero-failure contract intact.
func TestHarvestNeverWorseThanExhaustion(t *testing.T) {
	h := bench.NewHarness()
	h.ProfileRuns = 3
	for _, bm := range testBenches(t) {
		m, eb, inputs := placed(t, h, bm)
		base := runCfg(t, m, eb, inputs, nil, nil)
		for _, env := range []Environment{Solar{Seed: 2, Period: 400_000}, RF{Seed: 2}, Piezo{}} {
			res := runCfg(t, m, eb, inputs, Capacitor{Env: env, Capacity: eb}.Schedule(), nil)
			if res.Verdict != emulator.Completed {
				t.Fatalf("%s/%s: verdict %v", bm.Name, env.Name(), res.Verdict)
			}
			if res.PowerFailures > base.PowerFailures {
				t.Fatalf("%s/%s: %d power failures vs %d under exhaustion",
					bm.Name, env.Name(), res.PowerFailures, base.PowerFailures)
			}
			if !reflect.DeepEqual(res.Output, base.Output) {
				t.Fatalf("%s/%s: output diverges from exhaustion run", bm.Name, env.Name())
			}
		}
	}
}

// A MEMENTOS trigger measures the one capacitor level that decides
// refusals. Under a supply that covers every draw (10 nJ/cycle against
// the model's 0.4) that level never falls to the trigger threshold, so
// no trigger checkpoint ever saves.
func TestSupplyCoveringDrawNeverTriggers(t *testing.T) {
	h := bench.NewHarness()
	h.ProfileRuns = 3
	for _, bm := range testBenches(t) {
		m, eb, inputs := placedWith(t, h, bm, "Mementos")
		if m == nil {
			continue
		}
		triggers := map[int]bool{}
		for _, ck := range ir.Checkpoints(m) {
			if ck.Kind == ir.CkTrigger {
				triggers[ck.ID] = true
			}
		}
		if len(triggers) == 0 {
			t.Fatalf("%s: MEMENTOS placed no trigger checkpoint", bm.Name)
		}
		saves := 0
		res := runCfg(t, m, eb, inputs, Capacitor{Env: Duty{Peak: 10, Frac: 1}, Capacity: eb}.Schedule(),
			observerFunc(func(e emulator.Event) {
				if e.Kind == emulator.EvSave && triggers[e.Site] {
					saves++
				}
			}))
		if res.Verdict != emulator.Completed {
			t.Fatalf("%s: verdict %v", bm.Name, res.Verdict)
		}
		if saves != 0 {
			t.Errorf("%s: %d trigger saves under a supply that covers every draw", bm.Name, saves)
		}
	}
}

type observerFunc func(emulator.Event)

func (f observerFunc) Event(e emulator.Event) { f(e) }

// Harvested members compose with the existing Schedules() combinator:
// injected failure points fire on top of capacitor physics, and the run
// still produces the continuous-power output.
func TestSchedulesCombinatorWithHarvest(t *testing.T) {
	h := bench.NewHarness()
	h.ProfileRuns = 3
	bms := testBenches(t)
	bm := bms[0]
	m, eb, inputs := placed(t, h, bm)
	oracle, err := emulator.Run(m, emulator.Config{
		Model: h.Model, VMSize: 1 << 20, Inputs: inputs,
	})
	if err != nil {
		t.Fatal(err)
	}
	sched := emulator.Schedules(
		Capacitor{Env: RF{Seed: 4}, Capacity: eb}.Schedule(),
		emulator.TraceSchedule(emulator.FailPoint{Kind: emulator.PointStep, N: 120}),
	)
	res := runCfg(t, m, eb, inputs, sched, nil)
	if res.Verdict != emulator.Completed {
		t.Fatalf("verdict %v", res.Verdict)
	}
	if res.InjectedFailures < 1 {
		t.Fatalf("trace member never fired (injected=%d)", res.InjectedFailures)
	}
	if !reflect.DeepEqual(res.Output, oracle.Output) {
		t.Fatalf("output diverges from continuous oracle")
	}
}

// Record → serialize → parse → replay must reproduce the bare run's
// Result byte-identically on every benchmark: the recorder only
// observes, so the bare and the recorded run agree, and the replay
// fires the recorded failures at the same probes. Cases: the first
// technique (Ratchet) under harvested physics and plain exhaustion,
// MEMENTOS under exhaustion (its trigger reads the capacitor level,
// which a replay without a supply reproduces), and SCHEMATIC under
// harvested physics.
func TestRecordReplayByteIdentical(t *testing.T) {
	h := bench.NewHarness()
	h.ProfileRuns = 3
	solar := func(eb float64) emulator.PowerSchedule {
		return Capacitor{Env: Solar{Seed: 9, Period: 300_000}, Capacity: eb}.Schedule()
	}
	exhaustion := func(float64) emulator.PowerSchedule { return nil }
	cases := []struct {
		tech, power string
		sched       func(eb float64) emulator.PowerSchedule
	}{
		{"", "solar", solar},
		{"", "exhaustion", exhaustion},
		{"Mementos", "exhaustion", exhaustion},
		{"Schematic", "solar", solar},
	}
	for _, bm := range testBenches(t) {
		for _, c := range cases {
			m, eb, inputs := placedWith(t, h, bm, c.tech)
			if m == nil {
				continue // the technique declines this benchmark
			}
			label := fmt.Sprintf("%s/%s/%s", bm.Name, c.tech, c.power)
			bare := runCfg(t, m, eb, inputs, c.sched(eb), nil)
			sched := c.sched(eb)
			rec := NewRecorder(sched, eb)
			rec.SampleEvery = 10_000
			recorded := runCfg(t, m, eb, inputs, sched, rec)

			var buf bytes.Buffer
			if err := rec.Trace().Write(&buf); err != nil {
				t.Fatal(err)
			}
			tr, err := ReadTrace(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			replayed := runCfg(t, m, eb, inputs, tr.Schedule(), nil)
			if !reflect.DeepEqual(bare, recorded) {
				t.Fatalf("%s: recording changed the Result:\nbare:     %+v\nrecorded: %+v", label, bare, recorded)
			}
			if !reflect.DeepEqual(recorded, replayed) {
				t.Fatalf("%s: replay diverges:\nrecorded: %+v\nreplayed: %+v", label, recorded, replayed)
			}
		}
	}
}

func TestTraceFormat(t *testing.T) {
	tr := &Trace{
		Header: Header{Schedule: "harvest(x)", EB: 1234},
		Records: []Record{
			{K: "sample", N: 100, Cycle: 5_000, Level: 900},
			{K: "fail", Point: "charge", N: 321, Step: 77, Cycle: 9_000, Level: 1.5, Draw: 3.2},
			{K: "fail", Point: "mid-save", N: 2, Step: 90, Cycle: 9_500, Level: 800},
		},
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Header.Version != TraceVersion || got.Header.Schedule != "harvest(x)" || got.Header.EB != 1234 {
		t.Fatalf("header mangled: %+v", got.Header)
	}
	if !reflect.DeepEqual(got.Records, tr.Records) {
		t.Fatalf("records mangled:\n%+v\n%+v", got.Records, tr.Records)
	}
	sched := got.Schedule()
	if want := "trace(charge@321,mid-save@2)"; sched.Name() != want {
		t.Fatalf("replay name %q, want %q", sched.Name(), want)
	}

	for _, bad := range []string{
		"",
		"{\"kind\":\"other\",\"v\":1}\n",
		"{\"kind\":\"harvest-trace\",\"v\":99}\n",
		"{\"kind\":\"harvest-trace\",\"v\":1}\n{\"k\":\"nope\"}\n",
		"{\"kind\":\"harvest-trace\",\"v\":1}\n{\"k\":\"fail\",\"point\":\"bogus\",\"n\":1}\n",
	} {
		if _, err := ReadTrace(strings.NewReader(bad)); err == nil {
			t.Fatalf("ReadTrace accepted %q", bad)
		}
	}
}

func TestEnvironmentsPureAndBounded(t *testing.T) {
	envs := []struct {
		env  Environment
		peak float64
	}{
		{Solar{}, 0.8},
		{Solar{Seed: 42, Peak: 2, Period: 100_000, Day: 0.7, Cloud: 0.9}, 2},
		{RF{}, 1.5},
		{Piezo{}, 0.6},
		{Duty{}, 1.0},
	}
	for _, tc := range envs {
		for _, c := range []int64{0, 1, 999, 54_321, 2_000_000, 7_654_321} {
			p1, p2 := tc.env.Power(c), tc.env.Power(c)
			if p1 != p2 {
				t.Fatalf("%s: Power(%d) not pure", tc.env.Name(), c)
			}
			if p1 < 0 || p1 > tc.peak+1e-9 {
				t.Fatalf("%s: Power(%d) = %g outside [0, %g]", tc.env.Name(), c, p1, tc.peak)
			}
		}
		if tc.env.Name() == "" {
			t.Fatal("empty env name")
		}
	}
	if noise01(1, 2) != noise01(1, 2) || noise01(1, 2) == noise01(1, 3) {
		t.Fatal("noise01 not a stable hash")
	}
}

func TestImportCSV(t *testing.T) {
	src := "time_s,power_w\n# comment\n0,0.004\n0.01,0.008\n0.02,0\n"
	env, err := ImportCSV(strings.NewReader(src), CSVOptions{Hz: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	// 1 MHz: scale = 1e9/1e6 = 1000 nJ/cycle per watt.
	if got := env.Power(0); got != 4 {
		t.Fatalf("Power(0) = %g, want 4", got)
	}
	if got := env.Power(10_000); got != 8 {
		t.Fatalf("Power(10k) = %g, want 8", got)
	}
	if got := env.Power(20_001); got != 0 {
		t.Fatalf("Power(20k+) = %g, want 0", got)
	}
	// Loops: length = 20_000 + last dwell 10_000 = 30_000.
	if got := env.Power(30_001); got != 4 {
		t.Fatalf("looped Power = %g, want 4", got)
	}

	for _, bad := range []string{"", "1\n", "0,1\n-1,2\n", "0,1\n0.1,-3\n", "0,1\n1,abc\n"} {
		if _, err := ImportCSV(strings.NewReader(bad), CSVOptions{}); err == nil {
			t.Fatalf("ImportCSV accepted %q", bad)
		}
	}
}
