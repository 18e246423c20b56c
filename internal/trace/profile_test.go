package trace

import (
	"math/rand"
	"testing"

	"schematic/internal/ir"
	"schematic/internal/minic"
)

const profSrc = `
input int data[16];
int acc;

func int step(int x) {
  if (x > 100) {
    return x - 100;
  }
  return x;
}

func void main() {
  int i;
  acc = 0;
  for (i = 0; i < 16; i = i + 1) @max(16) {
    acc = acc + step(data[i]);
  }
  print(acc);
}
`

func TestCollectBasics(t *testing.T) {
	m := minic.MustCompile("prof", profSrc)
	p, err := Collect(m, Options{Runs: 20, Seed: 42})
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	if p.Runs != 20 {
		t.Errorf("Runs = %d", p.Runs)
	}
	if p.Seed != 42 {
		t.Errorf("Seed = %d, want 42 (collection parameters must be recorded)", p.Seed)
	}
	if p.Elapsed <= 0 {
		t.Errorf("Elapsed = %v, want > 0", p.Elapsed)
	}
	mainF := m.FuncByName("main")
	stepF := m.FuncByName("step")

	if got := p.Invocations(mainF); got != 20 {
		t.Errorf("main invocations = %d, want 20", got)
	}
	if got := p.Invocations(stepF); got != 20*16 {
		t.Errorf("step invocations = %d, want 320", got)
	}
	// The loop body runs 16 times per run.
	var body *ir.Block
	for _, b := range mainF.Blocks {
		if b.Name == "for.body" {
			body = b
		}
	}
	if body == nil {
		t.Fatal("no for.body")
	}
	if got := p.BlockFreq(mainF, body); got != 20*16 {
		t.Errorf("body freq = %d, want 320", got)
	}
	if p.AvgEnergyPerCycle <= 0 {
		t.Errorf("AvgEnergyPerCycle = %v", p.AvgEnergyPerCycle)
	}
	if p.AvgCycles <= 0 || p.AvgEnergy <= 0 {
		t.Errorf("averages not recorded: %+v", p)
	}
}

func TestEdgeCountsConsistent(t *testing.T) {
	m := minic.MustCompile("prof", profSrc)
	p, err := Collect(m, Options{Runs: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	mainF := m.FuncByName("main")
	// Block frequency equals the sum of incoming edge frequencies for every
	// block with predecessors (entry blocks are entered by call).
	for _, b := range mainF.Blocks {
		preds := b.Preds()
		if len(preds) == 0 {
			continue
		}
		var in int64
		for _, pr := range preds {
			in += p.EdgeFreq(mainF, ir.Edge{From: pr, To: b})
		}
		if in != p.BlockFreq(mainF, b) {
			t.Errorf("block %s: incoming %d != freq %d", b.Name, in, p.BlockFreq(mainF, b))
		}
	}
}

func TestBranchFrequenciesReflectInputs(t *testing.T) {
	m := minic.MustCompile("prof", profSrc)
	// All inputs above 100: the step 'then' arm always taken.
	gen := func(r *rand.Rand, v *ir.Var) []int64 {
		data := make([]int64, v.Elems)
		for i := range data {
			data[i] = 150
		}
		return data
	}
	p, err := Collect(m, Options{Runs: 3, Seed: 1, InputGen: gen})
	if err != nil {
		t.Fatal(err)
	}
	stepF := m.FuncByName("step")
	var thenB *ir.Block
	for _, b := range stepF.Blocks {
		if b.Name == "if.then" {
			thenB = b
		}
	}
	if thenB == nil {
		t.Fatal("no if.then in step")
	}
	if got := p.BlockFreq(stepF, thenB); got != 3*16 {
		t.Errorf("then freq = %d, want 48", got)
	}
}

func TestLoopIterEstimate(t *testing.T) {
	m := minic.MustCompile("prof", profSrc)
	p, err := Collect(m, Options{Runs: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	mainF := m.FuncByName("main")
	var head *ir.Block
	for _, b := range mainF.Blocks {
		if b.Name == "for.head" {
			head = b
		}
	}
	est := p.LoopIterEstimate(head)
	// The loop runs exactly 16 iterations: the header executes 17 times per
	// entry, so the estimate should be about 17.
	if est < 16 || est > 18 {
		t.Errorf("loop estimate = %d, want ≈17", est)
	}
}

func TestEBForTBPF(t *testing.T) {
	m := minic.MustCompile("prof", profSrc)
	p, err := Collect(m, Options{Runs: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	eb1 := p.EBForTBPF(1000)
	eb10 := p.EBForTBPF(10000)
	if eb1 <= 0 {
		t.Fatalf("EB = %v, want positive", eb1)
	}
	if ratio := eb10 / eb1; ratio < 9.999 || ratio > 10.001 {
		t.Errorf("EB scaling wrong: %v %v (ratio %v)", eb1, eb10, ratio)
	}
}

func TestRandomInputsShape(t *testing.T) {
	m := minic.MustCompile("prof", profSrc)
	in := RandomInputs(m, rand.New(rand.NewSource(3)))
	data, ok := in["data"]
	if !ok || len(data) != 16 {
		t.Fatalf("inputs = %v", in)
	}
	for _, v := range data {
		if v < 0 || v >= 1<<15 {
			t.Errorf("input out of range: %d", v)
		}
	}
}

func TestCollectRejectsNonTerminating(t *testing.T) {
	m := ir.MustParse(`module spin
func void main() regs 1 {
entry:
  jmp entry
}
`)
	if _, err := Collect(m, Options{Runs: 1, MaxSteps: 1000}); err == nil {
		t.Errorf("Collect accepted a non-terminating program")
	}
}

// TestProfileCountsStableAcrossAdapter pins the exact counts Collect
// gathers for a fixed program and seed. The profiler is an Observer of
// the emulator's block-entry and return events — these numbers must not
// move when the profiler (or the event layer underneath it) changes.
func TestProfileCountsStableAcrossAdapter(t *testing.T) {
	m := minic.MustCompile("prof", profSrc)
	p, err := Collect(m, Options{Runs: 10, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	mainF := m.FuncByName("main")
	stepF := m.FuncByName("step")

	if got := p.Invocations(mainF); got != 10 {
		t.Errorf("main invocations = %d, want 10", got)
	}
	if got := p.Invocations(stepF); got != 160 {
		t.Errorf("step invocations = %d, want 160", got)
	}
	// Exact per-block frequencies: the loop is input-independent (16
	// iterations per run), so every block count is fully determined.
	for _, want := range []struct {
		block string
		freq  int64
	}{
		{"entry", 10},
		{"for.head", 170}, // 17 header executions per run
		{"for.body", 160},
		{"for.latch", 160},
		{"for.end", 10},
	} {
		var blk *ir.Block
		for _, b := range mainF.Blocks {
			if b.Name == want.block {
				blk = b
			}
		}
		if blk == nil {
			t.Fatalf("main has no block %q", want.block)
		}
		if got := p.BlockFreq(mainF, blk); got != want.freq {
			t.Errorf("main.%s freq = %d, want %d", want.block, got, want.freq)
		}
	}
	// The loop back-edge (latch → header) count is exact too.
	var head, latch *ir.Block
	for _, b := range mainF.Blocks {
		switch b.Name {
		case "for.head":
			head = b
		case "for.latch":
			latch = b
		}
	}
	if got := p.EdgeFreq(mainF, ir.Edge{From: latch, To: head}); got != 160 {
		t.Errorf("back-edge freq = %d, want 160", got)
	}
}
