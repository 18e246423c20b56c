package bench

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"schematic/internal/baselines"
	"schematic/internal/emulator"
	"schematic/internal/fuzzgen"
	"schematic/internal/harvest"
	"schematic/internal/ir"
	"schematic/internal/minic"
	"schematic/internal/trace"
)

// The dispatch-equivalence suite: every case runs on the batched path
// (no observer) and on the stepped path (a no-op observer forces it),
// and both Results — verdict, output, step/cycle/failure counters, and
// the energy ledger down to the last float bit — must equal the case's
// line in the golden corpus byte for byte, across every benchmark,
// technique, and power schedule shape. The corpus froze the answers of
// the per-instruction IR interpreter the emulator used to carry as its
// differential oracle; any divergence means execution changed
// observable semantics, which is never acceptable.
//
// Regenerating the corpus (-update) is only legitimate when a change
// deliberately alters what a run computes (the energy model, a
// checkpoint runtime, a benchmark); see TESTING.md.

var update = flag.Bool("update", false, "rewrite "+goldenPath+" from the current engine (full, non-short run only)")

const goldenPath = "testdata/dispatch_golden.ndjson"

// goldenLine is one corpus entry: the case label and what the run
// returned — an error text, or the Result as JSON (float64 round-trips
// exactly through encoding/json).
type goldenLine struct {
	Label  string          `json:"label"`
	Err    string          `json:"err"`
	Result json.RawMessage `json:"result"`
}

var golden struct {
	lines   map[string]string // label -> encoded line, loaded on first use
	updated []string          // lines recorded by an -update run, in case order
	suites  int               // suites that ran in full under -update
}

func TestMain(m *testing.M) {
	flag.Parse()
	code := m.Run()
	if *update && code == 0 {
		if err := writeGolden(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			code = 1
		}
	}
	os.Exit(code)
}

// writeGolden replaces the corpus with the lines of this -update run.
// It refuses a partial run, which would silently drop cases.
func writeGolden() error {
	if testing.Short() || golden.suites != 2 {
		return fmt.Errorf("dispatch golden: -update needs a full run of both equivalence suites (-run 'TestDispatchEquivalence', no -short)")
	}
	return os.WriteFile(goldenPath, []byte(strings.Join(golden.updated, "\n")+"\n"), 0o644)
}

func goldenLines(t *testing.T) map[string]string {
	t.Helper()
	if golden.lines != nil {
		return golden.lines
	}
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatalf("dispatch golden corpus: %v", err)
	}
	defer f.Close()
	lines := map[string]string{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var gl goldenLine
		if err := json.Unmarshal(sc.Bytes(), &gl); err != nil {
			t.Fatalf("dispatch golden corpus: %s: %v", goldenPath, err)
		}
		lines[gl.Label] = sc.Text()
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("dispatch golden corpus: %v", err)
	}
	golden.lines = lines
	return lines
}

// encodeRun renders one run's outcome as its corpus line.
func encodeRun(t *testing.T, label string, res *emulator.Result, err error) string {
	t.Helper()
	gl := goldenLine{Label: label}
	if err != nil {
		gl.Err = err.Error()
	} else {
		raw, merr := json.Marshal(res)
		if merr != nil {
			t.Fatalf("%s: encode result: %v", label, merr)
		}
		gl.Result = raw
	}
	line, merr := json.Marshal(gl)
	if merr != nil {
		t.Fatalf("%s: encode line: %v", label, merr)
	}
	return string(line)
}

// eventCounter is the no-op observer that forces the stepped path; the
// count proves the path actually ran.
type eventCounter struct{ n int64 }

func (c *eventCounter) Event(emulator.Event) { c.n++ }

// equivSchedule configures one power-schedule shape onto a base config.
// The closure constructs any PowerSchedule fresh on every call:
// schedules are stateful, so runs must never share an instance.
type equivSchedule struct {
	name  string
	apply func(cfg *emulator.Config)
}

func equivSchedules() []equivSchedule {
	return []equivSchedule{
		{"continuous", func(cfg *emulator.Config) {
			cfg.Intermittent = false
			cfg.EB = 0
		}},
		{"exhaustion", func(cfg *emulator.Config) {}},
		{"periodic", func(cfg *emulator.Config) {
			cfg.Schedule = emulator.Schedules(emulator.Exhaustion(), emulator.Periodic(40_000))
		}},
		{"trace-torn-save", func(cfg *emulator.Config) {
			cfg.Schedule = emulator.Schedules(emulator.Exhaustion(), emulator.TraceSchedule(
				emulator.FailPoint{Kind: emulator.PointMidSave, N: 2},
				emulator.FailPoint{Kind: emulator.PointStep, N: 50_000},
			))
		}},
		// Harvested-capacitor schedules (internal/harvest): stateful
		// physics whose Fail decisions integrate the waveform over every
		// probe. Their presence keeps both runs off the batched path, so
		// they pin the stepped path under schedules.
		{"harvest-solar", func(cfg *emulator.Config) {
			cfg.Schedule = harvest.Capacitor{
				Env: harvest.Solar{Seed: 7, Period: 300_000}, Capacity: cfg.EB,
			}.Schedule()
		}},
		{"harvest-rf-undersized", func(cfg *emulator.Config) {
			// An undersized capacitor with a partial restart level
			// exercises the off-period recharge paths too.
			cfg.Schedule = harvest.Capacitor{
				Env: harvest.RF{Seed: 3}, Capacity: cfg.EB * 0.9, Restart: 0.8,
			}.Schedule()
		}},
		{"harvest-duty-composed", func(cfg *emulator.Config) {
			cfg.Schedule = emulator.Schedules(
				harvest.Capacitor{Env: harvest.Duty{}, Capacity: cfg.EB}.Schedule(),
				emulator.TraceSchedule(emulator.FailPoint{Kind: emulator.PointStep, N: 20_000}),
			)
		}},
	}
}

// runEngines executes the module on the batched and the stepped path and
// fails the test unless both encode to the case's golden line. base must
// not carry a Schedule; sc installs a fresh one per run.
func runEngines(t *testing.T, label string, m *ir.Module, base emulator.Config, sc equivSchedule) {
	t.Helper()
	batched, stepped := base, base
	sc.apply(&batched)
	sc.apply(&stepped)
	counter := &eventCounter{}
	stepped.Observer = counter

	resB, errB := emulator.Run(m, batched)
	gotB := encodeRun(t, label, resB, errB)
	resS, errS := emulator.Run(m, stepped)
	gotS := encodeRun(t, label, resS, errS)
	if counter.n == 0 {
		t.Fatalf("%s: the observer saw no events; the stepped path did not run", label)
	}

	if *update {
		if gotB != gotS {
			t.Fatalf("%s: paths diverge:\nbatched: %s\nstepped: %s", label, gotB, gotS)
		}
		golden.updated = append(golden.updated, gotB)
		return
	}
	want, ok := goldenLines(t)[label]
	if !ok {
		t.Fatalf("%s: no line in %s", label, goldenPath)
	}
	if gotB != want {
		t.Fatalf("%s: batched path diverges from the golden corpus:\ngot:  %s\nwant: %s", label, gotB, want)
	}
	if gotS != want {
		t.Fatalf("%s: stepped path diverges from the golden corpus:\ngot:  %s\nwant: %s", label, gotS, want)
	}
}

// suiteRan records a full (non-short) suite run for the -update gate.
func suiteRan() {
	if *update && !testing.Short() {
		golden.suites++
	}
}

// TestDispatchEquivalenceGrid covers the full evaluation surface: every
// benchmark x technique cell under all seven schedule shapes. Short mode
// keeps two benchmarks so the suite still exercises every technique and
// schedule on each run.
func TestDispatchEquivalenceGrid(t *testing.T) {
	h := NewHarness()
	h.ProfileRuns = 3
	bms, err := All()
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
	scheds := equivSchedules()
	for _, bm := range bms {
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
		for _, tech := range Techniques() {
			if !tech.SupportsVM(m, h.VMSize) {
				continue
			}
			clone := ir.Clone(m)
			if err := tech.Apply(clone, baselines.Params{
				Model: h.Model, Budget: eb, VMSize: h.VMSize, Profile: prof,
			}); err != nil {
				continue
			}
			for _, sc := range scheds {
				label := fmt.Sprintf("%s/%s/%s", bm.Name, tech.Name(), sc.name)
				base := emulator.Config{
					Model: h.Model, VMSize: h.VMSize,
					Intermittent: true, EB: eb, Inputs: inputs,
				}
				runEngines(t, label, clone, base, sc)
			}
		}
	}
	suiteRan()
}

// TestDispatchEquivalenceFuzz runs generated programs through both
// paths. The corpus has no checkpoints, so intermittent runs restart
// from boot on every failure and typically end Stuck — which is exactly
// the point: the paths must agree on abnormal verdicts and their ledgers
// too, not just on completions.
func TestDispatchEquivalenceFuzz(t *testing.T) {
	n := 24
	if testing.Short() {
		n = 6
	}
	scheds := equivSchedules()[:2] // continuous, exhaustion
	for i, prog := range fuzzgen.Corpus(42, n, fuzzgen.DefaultOptions()) {
		m, err := minic.Compile(fmt.Sprintf("fuzz%03d", i), prog.Source)
		if err != nil {
			continue // generator occasionally emits programs the frontend rejects
		}
		inputs := trace.RandomInputs(m, rand.New(rand.NewSource(int64(i))))
		for _, sc := range scheds {
			base := emulator.Config{
				Model: NewHarness().Model, VMSize: 2048,
				Intermittent: true, EB: 2_000, Inputs: inputs,
				MaxSteps: 2_000_000, MaxFailures: 50,
			}
			runEngines(t, fmt.Sprintf("fuzz%03d/%s", i, sc.name), m, base, sc)
		}
	}
	suiteRan()
}
