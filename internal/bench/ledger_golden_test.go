package bench

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"

	"schematic/internal/emulator"
	"schematic/internal/obs"
)

// ledgerLine is one ledger corpus entry: what an obs.Collector
// attributed over one dispatch-suite case — its per-block, per-function
// and per-site ledgers and its four event counters. Floats round-trip
// exactly through encoding/json, so a line pins every sum to the bit.
type ledgerLine struct {
	Label            string            `json:"label"`
	Blocks           []obs.BlockEnergy `json:"blocks"`
	Functions        []obs.FuncEnergy  `json:"functions"`
	Sites            []obs.SiteStats   `json:"sites"`
	PowerFailures    int64             `json:"power_failures"`
	Sleeps           int64             `json:"sleeps"`
	PoisonReads      int64             `json:"poison_reads"`
	InjectedFailures int64             `json:"injected_failures"`
}

// encodeLedgers renders a collector's ledgers as the case's corpus line.
func encodeLedgers(t *testing.T, label string, col *obs.Collector) string {
	t.Helper()
	line, err := json.Marshal(ledgerLine{
		Label:            label,
		Blocks:           col.Blocks(),
		Functions:        col.Functions(),
		Sites:            col.Sites(),
		PowerFailures:    col.PowerFailures,
		Sleeps:           col.Sleeps,
		PoisonReads:      col.PoisonReads,
		InjectedFailures: col.InjectedFailures,
	})
	if err != nil {
		t.Fatalf("%s: encode ledgers: %v", label, err)
	}
	return string(line)
}

// collectCase runs one suite case with a fresh Collector as its only
// observer and returns the collector's corpus line. The run's error, if
// any, is the dispatch corpus's business; the ledgers up to it stand.
func collectCase(t *testing.T, c dispatchCase) string {
	t.Helper()
	cfg := c.base
	c.sched.apply(&cfg)
	col := obs.NewCollector()
	cfg.Observer = col
	emulator.Run(c.mod, cfg)
	return encodeLedgers(t, c.label, col)
}

// TestLedgerGolden freezes what obs.Collector attributes over every
// case of the dispatch-equivalence suite, in corpus order. A full run
// requires testdata/ledger_golden.ndjson byte for byte; a short run
// checks its cases line by line. Regenerate it (-update) only under the
// dispatch corpus's rules (TESTING.md).
func TestLedgerGolden(t *testing.T) {
	var lines []string
	for _, c := range append(gridCases(t), fuzzCases(t)...) {
		got := collectCase(t, c)
		if testing.Short() && !*update {
			if want := ledgerGolden.want(t, c.label); got != want {
				t.Fatalf("%s: ledgers diverge from the golden corpus:\ngot:  %s\nwant: %s", c.label, got, want)
			}
		}
		lines = append(lines, got)
	}
	if *update {
		ledgerGolden.updated = lines
		ledgerGolden.suiteRan()
		return
	}
	if testing.Short() {
		return
	}
	want, err := os.ReadFile(ledgerGolden.path)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Join(lines, "\n") + "\n"
	if got == string(want) {
		return
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	for i, line := range lines {
		if i >= len(wantLines) {
			t.Fatalf("%d lines, the golden corpus has %d", len(lines), len(wantLines))
		}
		if line != wantLines[i] {
			t.Fatalf("line %d diverges from the golden corpus:\ngot:  %s\nwant: %s", i+1, line, wantLines[i])
		}
	}
	t.Fatalf("%d lines, the golden corpus has %d", len(lines), len(wantLines))
}

// ledgerOracle attributes a run's energy from its event stream alone,
// the way obs.Collector did before the machine kept an Attribution:
// name-keyed maps fed by every EvCharge and EvBlockEnter. As the
// observer of a run it reads every event, so it forces the stepped
// path. It also keeps the stream an Attributor is sent: every event but
// EvCharge and EvBlockEnter.
type ledgerOracle struct {
	blocks map[[2]string]*obs.BlockEnergy
	sites  map[int]*obs.SiteStats
	counts [4]int64 // power failures, sleeps, poison reads, injections
	stream []emulator.Event
}

func newLedgerOracle() *ledgerOracle {
	return &ledgerOracle{blocks: map[[2]string]*obs.BlockEnergy{}, sites: map[int]*obs.SiteStats{}}
}

func eventNames(e emulator.Event) (fn, block string) {
	if e.Fn != nil {
		fn = e.Fn.Name
	}
	if e.Block != nil {
		block = e.Block.Name
	}
	return fn, block
}

func (o *ledgerOracle) block(e emulator.Event) *obs.BlockEnergy {
	fn, block := eventNames(e)
	b, ok := o.blocks[[2]string{fn, block}]
	if !ok {
		b = &obs.BlockEnergy{Func: fn, Block: block}
		o.blocks[[2]string{fn, block}] = b
	}
	return b
}

func (o *ledgerOracle) site(e emulator.Event) *obs.SiteStats {
	s, ok := o.sites[e.Site]
	if !ok {
		s = &obs.SiteStats{Site: e.Site}
		s.Func, s.Block = eventNames(e)
		o.sites[e.Site] = s
	}
	return s
}

func (o *ledgerOracle) Event(e emulator.Event) {
	if e.Kind != emulator.EvCharge && e.Kind != emulator.EvBlockEnter {
		o.stream = append(o.stream, e)
	}
	switch e.Kind {
	case emulator.EvBlockEnter:
		if !e.Resume {
			o.block(e).Entries++
		}
	case emulator.EvCheckpointHit:
		o.site(e).Fires++
	case emulator.EvSave:
		s := o.site(e)
		s.Saves++
		s.BytesSaved += int64(e.Bytes)
	case emulator.EvRestore:
		o.site(e).Restores++
	case emulator.EvPowerFailure:
		o.counts[0]++
	case emulator.EvSleepStart:
		o.counts[1]++
	case emulator.EvPoisonRead:
		o.counts[2]++
	case emulator.EvInjection:
		o.counts[3]++
	case emulator.EvCharge:
		switch e.Class {
		case emulator.ChargeCompute:
			o.block(e).Compute += e.Energy
		case emulator.ChargeVMAccess:
			b := o.block(e)
			b.Compute += e.Energy
			b.VMAccess += e.Energy
			b.VMAccesses++
		case emulator.ChargeNVMAccess:
			b := o.block(e)
			b.Compute += e.Energy
			b.NVMAccess += e.Energy
			b.NVMAccesses++
		case emulator.ChargeSave:
			o.site(e).SaveEnergy += e.Energy
		case emulator.ChargeRestore:
			o.site(e).RestoreEnergy += e.Energy
		case emulator.ChargeReexec:
			o.site(e).ReexecEnergy += e.Energy
		}
	}
}

// line renders the oracle's ledgers as a corpus line, in the
// Collector's order: blocks by (function, block), functions summed over
// the sorted blocks, sites by ID.
func (o *ledgerOracle) line(t *testing.T, label string) string {
	t.Helper()
	blocks := []obs.BlockEnergy{}
	for _, b := range o.blocks {
		blocks = append(blocks, *b)
	}
	sort.Slice(blocks, func(i, j int) bool {
		if blocks[i].Func != blocks[j].Func {
			return blocks[i].Func < blocks[j].Func
		}
		return blocks[i].Block < blocks[j].Block
	})
	var funcs []obs.FuncEnergy
	for _, b := range blocks {
		if len(funcs) == 0 || funcs[len(funcs)-1].Func != b.Func {
			funcs = append(funcs, obs.FuncEnergy{Func: b.Func})
		}
		f := &funcs[len(funcs)-1]
		f.Compute += b.Compute
		f.VMAccess += b.VMAccess
		f.NVMAccess += b.NVMAccess
	}
	sites := []obs.SiteStats{}
	for _, s := range o.sites {
		sites = append(sites, *s)
	}
	sort.Slice(sites, func(i, j int) bool { return sites[i].Site < sites[j].Site })
	line, err := json.Marshal(ledgerLine{
		Label: label, Blocks: blocks, Functions: funcs, Sites: sites,
		PowerFailures: o.counts[0], Sleeps: o.counts[1], PoisonReads: o.counts[2], InjectedFailures: o.counts[3],
	})
	if err != nil {
		t.Fatalf("%s: encode oracle ledgers: %v", label, err)
	}
	return string(line)
}

// attributorStream records the events an opted-out observer receives.
type attributorStream struct{ events []emulator.Event }

func (s *attributorStream) Event(e emulator.Event) { s.events = append(s.events, e) }

func (s *attributorStream) Attribution() *emulator.Attribution { return nil }

// checkAttribution requires a Collector run (batched where the
// unobserved run batches) to agree with the ledger oracle that observed
// the stepped run, its opted-out stream to
// equal the oracle's, and its counts to step exactly where the
// unobserved run's do, while the stepped run steps every instruction
// for its observer. The Collector fed that run's every event must
// agree too.
func checkAttribution(t *testing.T, label string, col, fed *obs.Collector, stream *attributorStream,
	o *ledgerOracle, collected, unobserved, stepped *emulator.Counts) {
	t.Helper()
	got, want := encodeLedgers(t, label, col), o.line(t, label)
	if got != want {
		t.Fatalf("%s: collector ledgers differ from the event oracle:\ncollector: %s\noracle:    %s", label, got, want)
	}
	if fromEvents := encodeLedgers(t, label, fed); fromEvents != want {
		t.Fatalf("%s: ledgers folded from events differ from the event oracle:\ncollector: %s\noracle:    %s", label, fromEvents, want)
	}
	for i := range max(len(stream.events), len(o.stream)) {
		switch {
		case i >= len(stream.events):
			t.Fatalf("%s: the opted-out stream ends at event %d; the oracle's goes on with %+v", label, i, o.stream[i])
		case i >= len(o.stream):
			t.Fatalf("%s: the opted-out stream has extra event %d: %+v", label, i, stream.events[i])
		case stream.events[i] != o.stream[i]:
			t.Fatalf("%s: opted-out event %d differs:\ngot:  %+v\nwant: %+v", label, i, stream.events[i], o.stream[i])
		}
	}
	if collected.BatchedSteps() != unobserved.BatchedSteps() {
		t.Fatalf("%s: a Collector run batched %d instructions, its unobserved twin %d",
			label, collected.BatchedSteps(), unobserved.BatchedSteps())
	}
	for _, c := range []struct {
		run    string
		counts *emulator.Counts
	}{{"collected", collected}, {"unobserved", unobserved}, {"stepped", stepped}} {
		var sum int64
		for r := emulator.StepReason(0); r <= emulator.StepBoundary; r++ {
			sum += c.counts.Stepped(r)
		}
		if want := c.counts.Steps() - c.counts.BatchedSteps(); sum != want {
			t.Fatalf("%s: %s run's stepped reasons sum to %d, Steps − BatchedSteps is %d", label, c.run, sum, want)
		}
	}
	for r := emulator.StepReason(0); r <= emulator.StepBoundary; r++ {
		if collected.Stepped(r) != unobserved.Stepped(r) {
			t.Fatalf("%s: a Collector run stepped %d instructions for reason %d, its unobserved twin %d",
				label, collected.Stepped(r), r, unobserved.Stepped(r))
		}
	}
	if n := stepped.Stepped(emulator.StepObserver); n != stepped.Steps() {
		t.Fatalf("%s: the observed run stepped %d of %d instructions for its observer", label, n, stepped.Steps())
	}
}
