package bench

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"schematic/internal/baselines"
	"schematic/internal/baselines/ratchet"
	"schematic/internal/emulator"
	"schematic/internal/ir"
	"schematic/internal/obs"
)

// flowOracle recounts a run's control flow from its event stream alone,
// independently of emulator.Counts. It mirrors the volatile call stack,
// one current block per frame: a Call entry pushes a frame, a return
// pops one, a power failure loses them all, and a Resume replay (after a
// failure, or when a run boots from Config.Resume) rebuilds the stack
// from the replayed frames, outermost first. Every entry that is not a
// replay is counted by the way it came in: a Call entry as an entry of
// its function, any other entry as the edge from its frame's current
// block. As the observer of a run it also forces the stepped path.
type flowOracle struct {
	stack    []*ir.Block
	replayed bool // the previous event was a Resume entry
	calls    map[*ir.Func]int64
	edges    map[flowEdge]int64
	events   int64
}

type flowEdge struct{ from, to *ir.Block }

func newFlowOracle() *flowOracle {
	return &flowOracle{calls: map[*ir.Func]int64{}, edges: map[flowEdge]int64{}}
}

func (o *flowOracle) Event(e emulator.Event) {
	o.events++
	replay := e.Kind == emulator.EvBlockEnter && e.Resume
	switch {
	case replay:
		if !o.replayed {
			o.stack = o.stack[:0]
		}
		o.stack = append(o.stack, e.Block)
	case e.Kind == emulator.EvBlockEnter && e.Call:
		o.calls[e.Fn]++
		o.stack = append(o.stack, e.Block)
	case e.Kind == emulator.EvBlockEnter:
		top := len(o.stack) - 1
		o.edges[flowEdge{o.stack[top], e.Block}]++
		o.stack[top] = e.Block
	case e.Kind == emulator.EvFuncReturn:
		o.stack = o.stack[:len(o.stack)-1]
	case e.Kind == emulator.EvPowerFailure:
		o.stack = o.stack[:0]
	}
	o.replayed = replay
}

// countedFlow reads a Counts back through its block and function
// accessors, keyed like the oracle. Arms of one branch that share a
// target add up, as the oracle cannot tell them apart.
func countedFlow(m *ir.Module, c *emulator.Counts) (map[*ir.Func]int64, map[flowEdge]int64) {
	calls, edges := map[*ir.Func]int64{}, map[flowEdge]int64{}
	for _, f := range m.Funcs {
		if n := c.Calls(f); n > 0 {
			calls[f] = n
		}
		for _, b := range f.Blocks {
			for i, s := range b.Succs() {
				if n := c.Taken(b, i); n > 0 {
					edges[flowEdge{b, s}] += n
				}
			}
		}
	}
	return calls, edges
}

// flowText renders counts by name, sorted, for failure messages.
func flowText(calls map[*ir.Func]int64, edges map[flowEdge]int64) string {
	var lines []string
	for f, n := range calls {
		lines = append(lines, fmt.Sprintf("call %s=%d", f.Name, n))
	}
	for e, n := range edges {
		lines = append(lines, fmt.Sprintf("%s.%s->%s=%d", e.from.Func.Name, e.from.Name, e.to.Name, n))
	}
	sort.Strings(lines)
	return strings.Join(lines, " ")
}

// checkFlow requires the Counts of a batched and a stepped run of the
// same case to agree with each other and with the oracle that observed
// the stepped run, and their step totals to match the Results.
func checkFlow(t *testing.T, label string, m *ir.Module, batched, stepped *emulator.Counts,
	resB, resS *emulator.Result, o *flowOracle) {
	t.Helper()
	bc, be := countedFlow(m, batched)
	sc, se := countedFlow(m, stepped)
	if !reflect.DeepEqual(bc, sc) || !reflect.DeepEqual(be, se) {
		t.Fatalf("%s: batched and stepped counts differ:\nbatched: %s\nstepped: %s",
			label, flowText(bc, be), flowText(sc, se))
	}
	if !reflect.DeepEqual(sc, o.calls) || !reflect.DeepEqual(se, o.edges) {
		t.Fatalf("%s: counts differ from the event oracle:\ncounts: %s\noracle: %s",
			label, flowText(sc, se), flowText(o.calls, o.edges))
	}
	if stepped.BatchedSteps() != 0 {
		t.Fatalf("%s: observed run batched %d instructions", label, stepped.BatchedSteps())
	}
	if resB != nil && batched.Steps() != resB.Steps {
		t.Fatalf("%s: batched counts hold %d steps, Result %d", label, batched.Steps(), resB.Steps)
	}
	if resS != nil && stepped.Steps() != resS.Steps {
		t.Fatalf("%s: stepped counts hold %d steps, Result %d", label, stepped.Steps(), resS.Steps)
	}
}

// TestCountsResume pins the counts of a run booted from a captured
// persistent state: the run boots at the recovery point, replays the
// restored stack (not counted; main is never entered), and re-executes
// from the recovery point through further power failures. The batched
// and stepped resumes must return one Result, and their counts must
// equal each other and the oracle.
// A resumed Collector run, whose first charges land in a block it never
// entered, must agree with the ledger oracle (checkAttribution).
func TestCountsResume(t *testing.T) {
	bm, err := ByName("crc")
	if err != nil {
		t.Fatal(err)
	}
	h := NewHarness()
	h.ProfileRuns = 3
	prof, err := h.Profile(context.Background(), bm)
	if err != nil {
		t.Fatal(err)
	}
	m, err := bm.Module()
	if err != nil {
		t.Fatal(err)
	}
	inputs, err := bm.Inputs(1)
	if err != nil {
		t.Fatal(err)
	}
	m = ir.Clone(m)
	eb := prof.EBForTBPF(10_000)
	if err := (ratchet.Ratchet{}).Apply(m, baselines.Params{
		Model: h.Model, Budget: eb, VMSize: h.VMSize, Profile: prof,
	}); err != nil {
		t.Fatal(err)
	}
	base := emulator.Config{Model: h.Model, VMSize: h.VMSize, Intermittent: true, EB: eb}

	var states []*emulator.PersistentState
	capture := base
	capture.Inputs = inputs
	capture.Hook = &emulator.Hook{Window: func(v emulator.PointVisit, state func() *emulator.PersistentState) {
		if v.Kind == emulator.PointAfterSave {
			states = append(states, state())
		}
	}}
	full, err := emulator.Run(m, capture)
	if err != nil {
		t.Fatal(err)
	}
	if full.PowerFailures == 0 || len(states) < 4 {
		t.Fatalf("capture run: %d failures, %d saves; the case exercises nothing", full.PowerFailures, len(states))
	}
	mid := states[len(states)/2]

	plain, batched, stepped, collected := base, base, base, base
	plain.Resume, batched.Resume, stepped.Resume, collected.Resume = mid, mid, mid, mid
	batched.Counts, stepped.Counts, collected.Counts = &emulator.Counts{}, &emulator.Counts{}, &emulator.Counts{}
	oracle, ledgers, fed := newFlowOracle(), newLedgerOracle(), obs.NewCollector()
	stepped.Observer = emulator.MultiObserver(oracle, ledgers, fed)
	col, stream := obs.NewCollector(), &attributorStream{}
	collected.Observer = emulator.MultiObserver(col, stream)
	resP, err := emulator.Run(m, plain)
	if err != nil {
		t.Fatal(err)
	}
	resB, err := emulator.Run(m, batched)
	if err != nil {
		t.Fatal(err)
	}
	resS, err := emulator.Run(m, stepped)
	if err != nil {
		t.Fatal(err)
	}
	resL, err := emulator.Run(m, collected)
	if err != nil {
		t.Fatal(err)
	}
	if resS.Verdict != emulator.Completed || resS.PowerFailures == 0 {
		t.Fatalf("resumed run: verdict %v, %d failures; want a completion through failures", resS.Verdict, resS.PowerFailures)
	}
	if !reflect.DeepEqual(resP, resB) || !reflect.DeepEqual(resP, resS) || !reflect.DeepEqual(resP, resL) {
		t.Fatalf("resumed Results differ:\nplain:     %+v\nbatched:   %+v\nstepped:   %+v\ncollected: %+v", resP, resB, resS, resL)
	}
	checkFlow(t, "crc/Ratchet/resume", m, batched.Counts, stepped.Counts, resB, resS, oracle)
	checkAttribution(t, "crc/Ratchet/resume", col, fed, stream, ledgers, collected.Counts, batched.Counts, stepped.Counts)
	if batched.Counts.BatchedSteps() == 0 {
		t.Error("counted resume never batched")
	}
	if n := batched.Counts.Calls(m.FuncByName("main")); n != 0 {
		t.Errorf("resumed run counted %d calls of main; it boots at the recovery point", n)
	}
}
