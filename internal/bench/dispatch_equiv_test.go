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
	"schematic/internal/obs"
	"schematic/internal/trace"
)

// The dispatch-equivalence suite: every case runs on the batched path
// (no observer), again batched with emulator.Counts attached, on the
// stepped path (the counting flow oracle observes it, which forces it),
// and with an obs.Collector, which batches where the unobserved run
// does, and all four Results — verdict, output, step/cycle/failure
// counters, and the energy ledger down to the last float bit — must
// equal the case's line in the golden corpus byte for byte, across
// every benchmark, technique, and power schedule shape. The Counts must
// agree with each other and with the oracle's recount from the event
// stream, which pins the counting rule under power failures: the
// replay of a restored stack is not counted, re-executed blocks are.
// The Collector must agree with the ledger oracle (checkAttribution).
// The corpus froze the answers of the per-instruction IR interpreter
// the emulator used to carry as its differential oracle (TESTING.md
// lists the deliberate regenerations since); any divergence means
// execution changed observable semantics, which is never acceptable.
//
// Regenerating the corpus (-update) is only legitimate when a change
// deliberately alters what a run computes (the energy model, a
// checkpoint runtime, a benchmark); see TESTING.md.

var update = flag.Bool("update", false, "rewrite the golden corpora under testdata from the current engine (full, non-short run only)")

// goldenCorpus is one NDJSON golden file whose lines are keyed by their
// "label" field. A full -update run of every suite feeding the corpus
// rewrites it from the lines the suites recorded, in case order.
type goldenCorpus struct {
	path   string
	suites int // suites that must run in full before -update may write

	lines   map[string]string // label -> encoded line, loaded on first use
	updated []string          // lines recorded by an -update run
	ran     int               // suites that ran in full under -update
}

var (
	dispatchGolden = &goldenCorpus{path: "testdata/dispatch_golden.ndjson", suites: 2}
	profileGolden  = &goldenCorpus{path: "testdata/profile_golden.ndjson", suites: 1}
	ledgerGolden   = &goldenCorpus{path: "testdata/ledger_golden.ndjson", suites: 1}
)

func TestMain(m *testing.M) {
	flag.Parse()
	code := m.Run()
	if *update && code == 0 {
		if err := writeGoldens(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			code = 1
		}
	}
	os.Exit(code)
}

// writeGoldens replaces every corpus whose suites all ran in full under
// this -update run. It refuses a partial run, which would silently drop
// cases, and a run that fed no corpus at all.
func writeGoldens() error {
	if testing.Short() {
		return fmt.Errorf("golden corpora: -update needs a full (non-short) run")
	}
	wrote := false
	for _, c := range []*goldenCorpus{dispatchGolden, profileGolden, ledgerGolden, paperGolden} {
		switch {
		case c.ran == 0:
			continue
		case c.ran != c.suites:
			return fmt.Errorf("golden corpus %s: -update needs a full run of all %d of its suites, got %d", c.path, c.suites, c.ran)
		}
		if err := os.WriteFile(c.path, []byte(strings.Join(c.updated, "\n")+"\n"), 0o644); err != nil {
			return err
		}
		wrote = true
	}
	if !wrote {
		return fmt.Errorf("golden corpora: -update ran no full suite (-run 'TestDispatchEquivalence|TestProfileGolden|TestLedgerGolden|TestPaperGolden')")
	}
	return nil
}

// want returns the corpus line recorded for label.
func (c *goldenCorpus) want(t *testing.T, label string) string {
	t.Helper()
	if c.lines == nil {
		c.lines = loadGolden(t, c.path)
	}
	line, ok := c.lines[label]
	if !ok {
		t.Fatalf("%s: no line in %s", label, c.path)
	}
	return line
}

// suiteRan records a full (non-short) suite run for the -update gate.
func (c *goldenCorpus) suiteRan() {
	if *update && !testing.Short() {
		c.ran++
	}
}

func loadGolden(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("golden corpus: %v", err)
	}
	defer f.Close()
	lines := map[string]string{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var key struct {
			Label string `json:"label"`
		}
		if err := json.Unmarshal(sc.Bytes(), &key); err != nil {
			t.Fatalf("golden corpus: %s: %v", path, err)
		}
		lines[key.Label] = sc.Text()
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("golden corpus: %v", err)
	}
	return lines
}

// goldenLine is one dispatch corpus entry: the case label and what the
// run returned — an error text, or the Result as JSON (float64
// round-trips exactly through encoding/json).
type goldenLine struct {
	Label  string          `json:"label"`
	Err    string          `json:"err"`
	Result json.RawMessage `json:"result"`
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
		// Harvested capacitors (internal/harvest): the emulator's
		// capacitor fed by a supply it integrates before every draw,
		// probe, sleep and failure. A supply keeps no run off the
		// batched path: the batch redoes its draws with harvest-in, so
		// these pin that redo against the stepped path, outage
		// recharges included. The third composes a trace member, up to
		// whose step point the run batches.
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
		// Every member kind beside the capacitor, each of which fires on
		// most cells: a period shorter than the budget's 10k cycles, a
		// stride and a random member capped at three failures each, and
		// a trace member holding one charge point, which addresses the
		// run's 700th draw.
		{"every-member", func(cfg *emulator.Config) {
			cfg.Schedule = emulator.Schedules(emulator.Exhaustion(),
				emulator.Periodic(5_000),
				emulator.StrideSchedule(1_999, 3),
				emulator.RandomSchedule(11, 1_500, 3),
				emulator.TraceSchedule(emulator.FailPoint{Kind: emulator.PointCharge, N: 700}),
			)
		}},
	}
}

// runEngines executes the module four times: on the batched path with
// no Counts; on the batched path with a fresh Counts; on the stepped
// path with a fresh Counts and, as the observers that force it, the
// flow oracle, the ledger oracle and an obs.Collector fed every event
// (as under schematicd's hub); and with a fresh Counts, an
// obs.Collector and a stream recorder, which both opt out of
// per-instruction events, so the run batches where the unobserved one
// does. It fails the test unless all four Results encode to the case's
// golden line, the three Counts agree with each other and with the flow
// oracle, both Collectors agree with the ledger oracle (see
// checkAttribution) and the ledger corpus, and the counted run batched:
// every shape's members have horizons, so each batches up to them. base
// must not carry a Schedule; sc installs a fresh one per run.
func runEngines(t *testing.T, label string, m *ir.Module, base emulator.Config, sc equivSchedule) {
	t.Helper()
	batched, counted, stepped, collected := base, base, base, base
	sc.apply(&batched)
	sc.apply(&counted)
	sc.apply(&stepped)
	sc.apply(&collected)
	counted.Counts, stepped.Counts, collected.Counts = &emulator.Counts{}, &emulator.Counts{}, &emulator.Counts{}
	oracle, ledgers, fed := newFlowOracle(), newLedgerOracle(), obs.NewCollector()
	stepped.Observer = emulator.MultiObserver(oracle, ledgers, fed)
	col, stream := obs.NewCollector(), &attributorStream{}
	collected.Observer = emulator.MultiObserver(col, stream)

	resB, errB := emulator.Run(m, batched)
	gotB := encodeRun(t, label, resB, errB)
	resC, errC := emulator.Run(m, counted)
	gotC := encodeRun(t, label, resC, errC)
	resS, errS := emulator.Run(m, stepped)
	gotS := encodeRun(t, label, resS, errS)
	resL, errL := emulator.Run(m, collected)
	gotL := encodeRun(t, label, resL, errL)
	if oracle.events == 0 {
		t.Fatalf("%s: the observer saw no events; the stepped path did not run", label)
	}
	if counted.Counts.BatchedSteps() == 0 {
		t.Fatalf("%s: the counted run batched none of its %d instructions; the suite would compare the stepped path with itself",
			label, counted.Counts.Steps())
	}
	checkFlow(t, label, m, counted.Counts, stepped.Counts, resC, resS, oracle)
	checkAttribution(t, label, col, fed, stream, ledgers, collected.Counts, counted.Counts, stepped.Counts)
	if !*update {
		if got, frozen := encodeLedgers(t, label, col), ledgerGolden.want(t, label); got != frozen {
			t.Fatalf("%s: collector ledgers diverge from the ledger corpus:\ngot:  %s\nwant: %s", label, got, frozen)
		}
	}

	if *update {
		if gotB != gotS || gotC != gotB || gotL != gotB {
			t.Fatalf("%s: paths diverge:\nbatched: %s\ncounted: %s\nstepped: %s\ncollected: %s", label, gotB, gotC, gotS, gotL)
		}
		dispatchGolden.updated = append(dispatchGolden.updated, gotB)
		return
	}
	want := dispatchGolden.want(t, label)
	for _, run := range []struct{ path, got string }{
		{"batched", gotB}, {"counted batched", gotC}, {"stepped", gotS}, {"collected", gotL},
	} {
		if run.got != want {
			t.Fatalf("%s: %s path diverges from the golden corpus:\ngot:  %s\nwant: %s", label, run.path, run.got, want)
		}
	}
}

// dispatchCase is one case of the dispatch-equivalence suite: a placed
// module, its base config (no Schedule), the schedule shape to apply,
// and its corpus label.
type dispatchCase struct {
	label string
	mod   *ir.Module
	base  emulator.Config
	sched equivSchedule
}

// gridCases enumerates the full evaluation surface in corpus order:
// every benchmark x technique cell under all seven schedule shapes.
// Short mode keeps two benchmarks so the suite still exercises every
// technique and schedule on each run.
func gridCases(t *testing.T) []dispatchCase {
	t.Helper()
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
	var cases []dispatchCase
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
			for _, sc := range equivSchedules() {
				cases = append(cases, dispatchCase{
					label: fmt.Sprintf("%s/%s/%s", bm.Name, tech.Name(), sc.name),
					mod:   clone,
					base: emulator.Config{
						Model: h.Model, VMSize: h.VMSize,
						Intermittent: true, EB: eb, Inputs: inputs,
					},
					sched: sc,
				})
			}
		}
	}
	return cases
}

// fuzzCases enumerates generated programs under the continuous and
// exhaustion shapes. The corpus has no checkpoints, so intermittent runs
// restart from boot on every failure and typically end Stuck — which is
// exactly the point: the paths must agree on abnormal verdicts and their
// ledgers too, not just on completions.
func fuzzCases(t *testing.T) []dispatchCase {
	t.Helper()
	n := 24
	if testing.Short() {
		n = 6
	}
	model := NewHarness().Model
	var cases []dispatchCase
	for i, prog := range fuzzgen.Corpus(42, n, fuzzgen.DefaultOptions()) {
		m, err := minic.Compile(fmt.Sprintf("fuzz%03d", i), prog.Source)
		if err != nil {
			continue // generator occasionally emits programs the frontend rejects
		}
		inputs := trace.RandomInputs(m, rand.New(rand.NewSource(int64(i))))
		for _, sc := range equivSchedules()[:2] { // continuous, exhaustion
			cases = append(cases, dispatchCase{
				label: fmt.Sprintf("fuzz%03d/%s", i, sc.name),
				mod:   m,
				base: emulator.Config{
					Model: model, VMSize: 2048,
					Intermittent: true, EB: 2_000, Inputs: inputs,
					MaxSteps: 2_000_000, MaxFailures: 50,
				},
				sched: sc,
			})
		}
	}
	return cases
}

// TestDispatchEquivalenceGrid runs every grid case on every path.
func TestDispatchEquivalenceGrid(t *testing.T) {
	for _, c := range gridCases(t) {
		runEngines(t, c.label, c.mod, c.base, c.sched)
	}
	dispatchGolden.suiteRan()
}

// TestDispatchEquivalenceFuzz runs every generated program on every
// path.
func TestDispatchEquivalenceFuzz(t *testing.T) {
	for _, c := range fuzzCases(t) {
		runEngines(t, c.label, c.mod, c.base, c.sched)
	}
	dispatchGolden.suiteRan()
}
