package crashtest

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"schematic/internal/emulator"
	"schematic/internal/fuzzgen"
	"schematic/internal/harvest"
	"schematic/internal/ndjson"
)

// fastOpts keeps hunts cheap in tests without changing their structure.
func fastOpts() Options {
	return Options{ExhaustiveStepLimit: 400, SampledSteps: 10, SampledSaves: 3, RandomSchedules: 2}
}

// TestBenchPlacementsClean: correct placements on fast benchmarks show
// zero violations under the full adversarial schedule set.
func TestBenchPlacementsClean(t *testing.T) {
	cases, err := BenchCases([]string{"crc", "randmath"}, TechniqueNames(), 1)
	if err != nil {
		t.Fatal(err)
	}
	h := &Hunter{Opts: fastOpts()}
	results := h.Run(context.Background(), cases)
	s := Summarize(results)
	if s.Violations != 0 || s.Errors != 0 {
		for _, r := range results {
			if r.Finding != nil || r.Err != nil {
				t.Errorf("%s/%s: finding=%+v err=%v", r.Case.Name, r.Case.Technique, r.Finding, r.Err)
			}
		}
		t.Fatalf("summary: %s", s)
	}
	if s.Passed == 0 {
		t.Fatalf("nothing actually ran: %s", s)
	}
}

// TestCorpusRegression replays the committed fuzzgen seed corpus across
// all five techniques: sources must match their seeds and no placement
// may show a violation.
func TestCorpusRegression(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "corpus", "*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus files (%v); regenerate with go run ./internal/crashtest/gencorpus", err)
	}
	var cases []Case
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var prog fuzzgen.Program
		if err := json.Unmarshal(data, &prog); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if _, ok := prog.Regenerate(); !ok {
			t.Errorf("%s: stored source does not match its seed/options", path)
			continue
		}
		for _, tech := range TechniqueNames() {
			cases = append(cases, Case{
				Name:      strings.TrimSuffix(filepath.Base(path), ".json"),
				Fuzz:      &prog,
				Technique: tech,
				InputSeed: prog.Seed,
			})
		}
	}
	h := &Hunter{Opts: fastOpts()}
	results := h.Run(context.Background(), cases)
	for _, r := range results {
		switch {
		case r.Err != nil:
			t.Errorf("%s/%s: %v", r.Case.Name, r.Case.Technique, r.Err)
		case r.Finding != nil:
			t.Errorf("%s/%s: violation %s via %s: %s",
				r.Case.Name, r.Case.Technique, r.Finding.Class, r.Finding.Schedule, r.Finding.Detail)
		}
	}
	if s := Summarize(results); s.Passed == 0 {
		t.Fatalf("every corpus case skipped: %s", s)
	}
}

// TestSabotagedRatchetCounterexample is the acceptance scenario: deleting
// a WAR-breaking checkpoint from a Ratchet placement must yield a shrunk,
// replayable counterexample. The large TBPF makes exhaustion failures
// impossible, so only the injected schedules can expose the WAR store.
func TestSabotagedRatchetCounterexample(t *testing.T) {
	cs := Case{Name: "randmath", Technique: "Ratchet", InputSeed: 1, TBPF: 100_000_000, Sabotage: 2}
	bm, err := BenchCases([]string{"randmath"}, []string{"Ratchet"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	cs.Source = bm[0].Source

	f, err := Hunt(context.Background(), cs, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if f == nil {
		t.Fatal("sabotaged placement produced no finding")
	}
	if f.Class != ClassDivergence {
		t.Fatalf("class = %s, want %s (%s)", f.Class, ClassDivergence, f.Detail)
	}
	if f.FoundBy == "exhaustion" {
		t.Fatalf("finding attributed to exhaustion; the schedule set never injected")
	}
	if len(f.Schedule.Points) == 0 || len(f.Schedule.Points) > 2 {
		t.Fatalf("shrunk trace has %d points: %s", len(f.Schedule.Points), f.Schedule)
	}

	// The serialized repro replays deterministically to the same class.
	var buf bytes.Buffer
	if err := ndjson.Write(&buf, []Finding{*f}); err != nil {
		t.Fatal(err)
	}
	back, err := ndjson.Read[Finding](&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 {
		t.Fatalf("round trip produced %d findings", len(back))
	}
	for i := 0; i < 2; i++ {
		out, err := Replay(back[0])
		if err != nil {
			t.Fatal(err)
		}
		if out.Class != f.Class {
			t.Fatalf("replay %d: class = %q, want %q", i, out.Class, f.Class)
		}
	}
}

// TestSabotagedWaitPlacement: deleting a checkpoint from a wait-style
// placement breaks its no-failure guarantee — the exhaustion baseline
// itself becomes the counterexample (deterministically stuck re-executing
// the oversized segment).
func TestSabotagedWaitPlacement(t *testing.T) {
	bm, err := BenchCases([]string{"crc"}, []string{"Schematic"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	cs := bm[0]
	cs.Sabotage = 2
	f, err := Hunt(context.Background(), cs, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if f == nil {
		t.Fatal("sabotaged wait placement produced no finding")
	}
	if f.Class != ClassForwardProgress {
		t.Fatalf("class = %s, want %s (%s)", f.Class, ClassForwardProgress, f.Detail)
	}
	if f.FoundBy != "exhaustion" || len(f.Schedule.Points) != 0 {
		t.Fatalf("wait-contract finding should come from plain exhaustion, got %s via %s", f.FoundBy, f.Schedule)
	}
	out, err := Replay(*f)
	if err != nil {
		t.Fatal(err)
	}
	if out.Class != f.Class {
		t.Fatalf("replay class = %q, want %q", out.Class, f.Class)
	}
}

// TestWaitContractSkipsInjection: intact wait-style placements are judged
// by their own contract (no injection), but AssumeAnytime overrides it
// and exposes the NVM re-execution hazard.
func TestWaitContractSkipsInjection(t *testing.T) {
	bm, err := BenchCases([]string{"randmath"}, []string{"Rockclimb"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	f, err := Hunt(context.Background(), bm[0], fastOpts())
	if err != nil || f != nil {
		t.Fatalf("intact wait placement: finding=%+v err=%v, want clean pass", f, err)
	}
	opts := fastOpts()
	opts.AssumeAnytime = true
	f, err = Hunt(context.Background(), bm[0], opts)
	if err != nil {
		t.Fatal(err)
	}
	if f == nil {
		t.Fatal("AssumeAnytime found nothing; NVM-only wait placements are not injection-safe")
	}
	if f.Class != ClassDivergence && f.Class != ClassForwardProgress && f.Class != ClassPoisonRead {
		t.Fatalf("unexpected class %s", f.Class)
	}
}

// TestHunterDeadline: the hunter honours a caller-set Opts.Deadline as
// Hunt does. With one already past, every anytime case stops before its
// first injected schedule and is skipped; wait-style placements are left
// out because their contract check injects nothing.
func TestHunterDeadline(t *testing.T) {
	cases, err := BenchCases([]string{"crc", "randmath"}, []string{"Ratchet", "Mementos", "Alfred"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	opts := fastOpts()
	opts.Deadline = time.Now().Add(-time.Second)
	for _, r := range (&Hunter{Opts: opts}).Run(context.Background(), cases) {
		if !strings.Contains(r.Skipped, "deadline expired mid-hunt") {
			t.Errorf("%s/%s: skipped = %q, finding = %+v, err = %v; want a mid-hunt deadline skip",
				r.Case.Name, r.Case.Technique, r.Skipped, r.Finding, r.Err)
		}
	}
}

// TestSweepReportsBaselineViolation: the power sweep applies Hunt's
// baseline gate, so a sabotaged placement whose exhaustion baseline
// already diverges is one violation under the "exhaustion" schedule
// name, not a skipped case.
func TestSweepReportsBaselineViolation(t *testing.T) {
	bm, err := BenchCases([]string{"crc"}, []string{"Ratchet"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	cs := bm[0]
	cs.Sabotage = 2
	solar := NamedSchedule{Name: "solar", Make: func(eb float64) (emulator.PowerSchedule, error) {
		return harvest.Capacitor{Env: harvest.Solar{}, Capacity: eb}.Schedule(), nil
	}}
	results := (&Hunter{}).Sweep(context.Background(), []Case{cs}, []NamedSchedule{solar})
	if len(results) != 1 || results[0].Err != nil || results[0].Skipped != "" {
		t.Fatalf("results = %+v, want one judged case", results)
	}
	var violations []SweepResult
	for _, c := range results[0].Cells {
		if c.Violation() {
			violations = append(violations, c)
		}
	}
	if len(violations) != 1 || violations[0].Schedule != "exhaustion" || violations[0].Outcome.Class != ClassDivergence {
		t.Fatalf("violations = %+v, want one %s under exhaustion", violations, ClassDivergence)
	}
}

func TestScheduleSpecBuildAndString(t *testing.T) {
	spec := ScheduleSpec{Exhaust: true, Points: []PointSpec{{Kind: "step", N: 5}, {Kind: "mid-save", N: 2}}}
	if got := spec.String(); got != "exhaustion+step@5+mid-save@2" {
		t.Errorf("String() = %q", got)
	}
	if _, err := spec.Build(); err != nil {
		t.Errorf("Build: %v", err)
	}
	bad := ScheduleSpec{Points: []PointSpec{{Kind: "charge", N: 1}}}
	if _, err := bad.Build(); err == nil {
		t.Errorf("Build accepted the physics-only kind")
	}
	if (ScheduleSpec{}).String() != "(none)" {
		t.Errorf("empty spec String() = %q", ScheduleSpec{}.String())
	}
}

func TestSampleInt64(t *testing.T) {
	if got := sampleInt64(0, 5); got != nil {
		t.Errorf("sampleInt64(0) = %v", got)
	}
	got := sampleInt64(3, 10)
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Errorf("exhaustive sample = %v", got)
	}
	got = sampleInt64(1000, 5)
	if len(got) != 5 || got[0] != 1 || got[len(got)-1] != 1000 {
		t.Errorf("spread sample = %v", got)
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Errorf("sample not increasing: %v", got)
		}
	}
}

// TestSampleInt64Distinct is the regression for the duplicate-sample
// bug: for every (max, n), a budget of n must buy exactly min(n, max)
// DISTINCT points in [1, max], ascending — duplicates silently shrank
// the injected schedule set, so `-samples N` bought fewer than N points.
func TestSampleInt64Distinct(t *testing.T) {
	for max := int64(1); max <= 40; max++ {
		for n := 1; n <= 48; n++ {
			got := sampleInt64(max, n)
			want := int(max)
			if n < want {
				want = n
			}
			if len(got) != want {
				t.Fatalf("sampleInt64(%d, %d): %d points %v, want %d", max, n, len(got), got, want)
			}
			for i, v := range got {
				if v < 1 || v > max {
					t.Fatalf("sampleInt64(%d, %d): point %d out of range in %v", max, n, v, got)
				}
				if i > 0 && v <= got[i-1] {
					t.Fatalf("sampleInt64(%d, %d): not strictly ascending (so not distinct): %v", max, n, got)
				}
			}
		}
	}
	if got := sampleInt64(1000, 1); len(got) != 1 || got[0] != 500 {
		t.Errorf("single-sample midpoint = %v, want [500]", got)
	}
}

func TestSabotageOutOfRange(t *testing.T) {
	bm, err := BenchCases([]string{"randmath"}, []string{"Ratchet"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	cs := bm[0]
	cs.Sabotage = 10_000
	if _, err := Hunt(context.Background(), cs, fastOpts()); err == nil || IsSkip(err) {
		t.Fatalf("out-of-range sabotage: err = %v, want hard error", err)
	}
}

// TestFuzzProgramShrinks exercises the fuzz-program shrinking path.
// Wait-style placements are not injection-safe, so hunting a fuzz
// program under Rockclimb with AssumeAnytime deterministically yields a
// divergence counterexample; ShrinkProgram must preserve its class
// without growing the program, and the shrunk repro must still replay.
func TestFuzzProgramShrinks(t *testing.T) {
	opts := fastOpts()
	opts.AssumeAnytime = true
	cs := FuzzCases(4000013, 1, []string{"Rockclimb"}, 5)[0]
	found, err := Hunt(context.Background(), cs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if found == nil {
		t.Fatal("anytime-injected wait placement on the fuzz program produced no finding")
	}
	shrunk := ShrinkProgram(context.Background(), found, opts)
	if shrunk.Class != found.Class {
		t.Fatalf("shrinking changed the class: %s -> %s", found.Class, shrunk.Class)
	}
	if len(shrunk.Case.Source) > len(found.Case.Source) {
		t.Fatalf("shrinking grew the program: %d -> %d bytes", len(found.Case.Source), len(shrunk.Case.Source))
	}
	out, err := Replay(*shrunk)
	if err != nil {
		t.Fatal(err)
	}
	if out.Class != shrunk.Class {
		t.Fatalf("shrunk finding replays as %q, want %q", out.Class, shrunk.Class)
	}
}

// wantConfigError fails the test unless err is a ConfigError naming field.
func wantConfigError(t *testing.T, what string, err error, field string) {
	t.Helper()
	var ce *ConfigError
	if !errors.As(err, &ce) || ce.Field != field {
		t.Errorf("%s: err = %v, want a ConfigError naming %s", what, err, field)
	}
}

// TestOptionsFailClosed: Hunt, Prepare and Hunter.Sweep refuse a
// negative count with a ConfigError naming it. The case has no source, so building it
// would fail with another error: the check precedes the build and so
// every emulator run.
func TestOptionsFailClosed(t *testing.T) {
	unbuilt := Case{Name: "unbuilt", Technique: "Ratchet"}
	for _, tc := range []struct {
		field string
		opts  Options
	}{
		{"Options.ExhaustiveStepLimit", Options{ExhaustiveStepLimit: -1}},
		{"Options.SampledSteps", Options{SampledSteps: -1}},
		{"Options.SampledSaves", Options{SampledSaves: -1}},
		{"Options.RandomSchedules", Options{RandomSchedules: -1}},
	} {
		_, err := Hunt(context.Background(), unbuilt, tc.opts)
		wantConfigError(t, "Hunt", err, tc.field)
		_, err = Prepare(unbuilt, tc.opts)
		wantConfigError(t, "Prepare", err, tc.field)
		results := (&Hunter{Opts: tc.opts}).Sweep(context.Background(), []Case{unbuilt}, nil)
		if len(results) != 1 || len(results[0].Cells) != 0 {
			t.Fatalf("Sweep: results = %+v, want one case with no cells", results)
		}
		wantConfigError(t, "Sweep", results[0].Err, tc.field)
		if err := tc.opts.Validate(); err == nil || err.Error() != "invalid "+tc.field+": must not be negative, got -1" {
			t.Errorf("Validate: %v", err)
		}
	}
}

// TestCaseFailsClosed: a negative Sabotage or TBPF is refused by name,
// not hunted as the intact placement or reported as the capacitor
// budget it derives.
func TestCaseFailsClosed(t *testing.T) {
	for _, tc := range []struct {
		field    string
		sabotage int
		tbpf     int64
	}{
		{"Case.Sabotage", -1, 0},
		{"Case.TBPF", 0, -5},
	} {
		cs := benchCase(t, "crc", "Ratchet")
		cs.Sabotage, cs.TBPF = tc.sabotage, tc.tbpf
		f, err := Hunt(context.Background(), cs, fastOpts())
		if f != nil {
			t.Errorf("%s: finding %+v", tc.field, f)
		}
		wantConfigError(t, "Hunt", err, tc.field)
		_, err = Replay(Finding{Case: cs, Schedule: ScheduleSpec{Exhaust: true}})
		wantConfigError(t, "Replay", err, tc.field)
	}
}

// TestBuildRejectsInvalidConfig: a case whose emulator configuration
// cannot validate must fail at build time with a ConfigError — before
// the hunt replays it against hundreds of schedules, where the mistake
// would surface as a wall of emulator-error outcomes.
func TestBuildRejectsInvalidConfig(t *testing.T) {
	cs := Case{
		Name:      "bad-vmsize",
		Source:    "func void main() { print(1); }",
		Technique: "Ratchet",
		VMSize:    -4,
	}
	_, err := Hunt(context.Background(), cs, fastOpts())
	if !errors.Is(err, emulator.ErrInvalidConfig) {
		t.Fatalf("Hunt with VMSize=-4: got %v, want ErrInvalidConfig", err)
	}
}
