package emulator

import (
	"strings"
	"testing"
	"testing/quick"

	"schematic/internal/energy"
	"schematic/internal/ir"
)

// loopProgram builds a module that sums 0..n-1 into acc and outputs the
// result, with a wait-style checkpoint in the loop body firing every
// `every` iterations (every < 0 omits the body checkpoint entirely), and
// acc allocated to VM when vmAcc is set.
func loopProgram(t testing.TB, n int, every int, vmAcc bool) *ir.Module {
	t.Helper()
	m := &ir.Module{Name: "loop"}
	acc := m.NewGlobal("acc", 1)
	idx := m.NewGlobal("i", 1)
	f := m.NewFunc("main", nil, false)

	entry := f.NewBlock("entry")
	head := f.NewBlock("head")
	body := f.NewBlock("body")
	done := f.NewBlock("done")

	b := ir.NewBuilder(f).At(entry)
	b.Emit(&ir.Checkpoint{ID: 0, Kind: ir.CkWait}) // boot checkpoint
	zero := b.Const(0)
	b.Store(acc, zero)
	b.Store(idx, zero)
	b.Jmp(head)

	b.At(head)
	i := b.Load(idx)
	lim := b.Const(int64(n))
	c := b.Bin(ir.OpLt, i, lim)
	b.Br(c, body, done)

	b.At(body)
	a := b.Load(acc)
	i2 := b.Load(idx)
	a2 := b.Bin(ir.OpAdd, a, i2)
	b.Store(acc, a2)
	if every >= 0 {
		ck := &ir.Checkpoint{ID: 1, Kind: ir.CkWait, Every: every}
		if vmAcc {
			ck.Save = []*ir.Var{acc}
			ck.Restore = []*ir.Var{acc}
		}
		b.Emit(ck)
	}
	one := b.Const(1)
	i3 := b.Bin(ir.OpAdd, i2, one)
	b.Store(idx, i3)
	b.Jmp(head)

	b.At(done)
	out := b.Load(acc)
	b.Out(out)
	b.Ret()

	if vmAcc {
		alloc := map[*ir.Var]bool{acc: true}
		for _, blk := range f.Blocks {
			blk.Alloc = alloc
		}
	}
	if err := ir.Verify(m); err != nil {
		t.Fatalf("verify: %v", err)
	}
	return m
}

func baseCfg() Config {
	return Config{Model: energy.MSP430FR5969(), VMSize: 2048}
}

func TestContinuousRun(t *testing.T) {
	m := loopProgram(t, 10, -1, false)
	res, err := Run(m, baseCfg())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Verdict != Completed {
		t.Fatalf("verdict = %v", res.Verdict)
	}
	if len(res.Output) != 1 || res.Output[0] != 45 {
		t.Errorf("output = %v, want [45]", res.Output)
	}
	if res.Cycles == 0 || res.Energy.Computation == 0 {
		t.Errorf("no work recorded: %+v", res)
	}
	if res.Energy.Reexecution != 0 || res.PowerFailures != 0 {
		t.Errorf("continuous run saw failures: %+v", res)
	}
	if res.Energy.VMAccesses != 0 {
		t.Errorf("all-NVM program recorded VM accesses")
	}
}

func TestVMAllocationSavesEnergy(t *testing.T) {
	nvmRes, err := Run(loopProgram(t, 50, -1, false), baseCfg())
	if err != nil {
		t.Fatal(err)
	}
	vmRes, err := Run(loopProgram(t, 50, -1, true), baseCfg())
	if err != nil {
		t.Fatal(err)
	}
	if vmRes.Output[0] != nvmRes.Output[0] {
		t.Fatalf("outputs differ: %v vs %v", vmRes.Output, nvmRes.Output)
	}
	if vmRes.Energy.Computation >= nvmRes.Energy.Computation {
		t.Errorf("VM computation energy %.1f should beat NVM %.1f",
			vmRes.Energy.Computation, nvmRes.Energy.Computation)
	}
	if vmRes.Energy.VMAccesses == 0 {
		t.Errorf("VM allocation recorded no VM accesses")
	}
	if vmRes.UnsyncedReads != 0 {
		t.Errorf("unsynced reads = %d", vmRes.UnsyncedReads)
	}
}

func TestIntermittentWaitCompletes(t *testing.T) {
	m := loopProgram(t, 100, 1, true)
	cfg := baseCfg()
	cfg.Intermittent = true
	cfg.EB = 400 // tight but enough for one iteration + checkpoint
	res, err := Run(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Completed {
		t.Fatalf("verdict = %v (failures=%d saves=%d)", res.Verdict, res.PowerFailures, res.Saves)
	}
	if res.Output[0] != 4950 {
		t.Errorf("output = %v, want [4950]", res.Output)
	}
	if res.Energy.Reexecution != 0 {
		t.Errorf("wait-style run should have zero re-execution, got %.1f", res.Energy.Reexecution)
	}
	if res.Saves == 0 || res.Sleeps == 0 {
		t.Errorf("expected checkpoint activity: %+v", res)
	}
	if res.UnsyncedReads != 0 {
		t.Errorf("unsynced reads = %d", res.UnsyncedReads)
	}
}

func TestConditionalCheckpointEvery(t *testing.T) {
	m := loopProgram(t, 90, 3, true)
	cfg := baseCfg()
	cfg.Intermittent = true
	cfg.EB = 1200
	res, err := Run(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Completed || res.Output[0] != 4005 {
		t.Fatalf("verdict=%v output=%v", res.Verdict, res.Output)
	}
	// Boot checkpoint + every 3rd iteration of 90.
	want := 1 + 90/3
	if res.Saves != want {
		t.Errorf("saves = %d, want %d", res.Saves, want)
	}
}

func TestStuckWithoutCheckpoints(t *testing.T) {
	m := loopProgram(t, 1000, -1, false)
	// Remove the boot checkpoint so there is no recovery point at all.
	entry := m.FuncByName("main").Entry()
	entry.Instrs = entry.Instrs[1:]
	cfg := baseCfg()
	cfg.Intermittent = true
	cfg.EB = 2000 // far below total consumption
	res, err := Run(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Stuck {
		t.Fatalf("verdict = %v, want stuck (failures=%d)", res.Verdict, res.PowerFailures)
	}
	if res.PowerFailures < maxStagnation {
		t.Errorf("failures = %d, want >= %d", res.PowerFailures, maxStagnation)
	}
}

// ratchetLoopProgram builds the summation loop with RATCHET-style
// register-only rollback checkpoints placed so that every NVM
// write-after-read dependency is broken: the checkpoint sits between the
// loads and the stores of an iteration, so re-executed stores use
// snapshotted register values and are idempotent.
func ratchetLoopProgram(t testing.TB, n int) *ir.Module {
	t.Helper()
	m := &ir.Module{Name: "ratchetloop"}
	acc := m.NewGlobal("acc", 1)
	idx := m.NewGlobal("i", 1)
	f := m.NewFunc("main", nil, false)

	entry := f.NewBlock("entry")
	head := f.NewBlock("head")
	body := f.NewBlock("body")
	done := f.NewBlock("done")

	b := ir.NewBuilder(f).At(entry)
	b.Emit(&ir.Checkpoint{ID: 0, Kind: ir.CkRollback, RegsOnly: true})
	zero := b.Const(0)
	b.Store(acc, zero)
	b.Store(idx, zero)
	b.Jmp(head)

	b.At(head)
	i := b.Load(idx)
	lim := b.Const(int64(n))
	c := b.Bin(ir.OpLt, i, lim)
	b.Br(c, body, done)

	b.At(body)
	a := b.Load(acc)
	i2 := b.Load(idx)
	a2 := b.Bin(ir.OpAdd, a, i2)
	one := b.Const(1)
	i3 := b.Bin(ir.OpAdd, i2, one)
	// Break the WAR dependencies on acc and i before writing them back.
	b.Emit(&ir.Checkpoint{ID: 1, Kind: ir.CkRollback, RegsOnly: true})
	b.Store(acc, a2)
	b.Store(idx, i3)
	b.Jmp(head)

	b.At(done)
	out := b.Load(acc)
	b.Out(out)
	b.Ret()

	if err := ir.Verify(m); err != nil {
		t.Fatalf("verify: %v", err)
	}
	return m
}

func TestRollbackReexecution(t *testing.T) {
	// Rollback checkpoints every iteration: the program completes, paying
	// re-execution energy after every failure.
	m := ratchetLoopProgram(t, 200)
	cfg := baseCfg()
	cfg.Intermittent = true
	cfg.EB = 1500
	res, err := Run(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Completed {
		t.Fatalf("verdict = %v (failures=%d)", res.Verdict, res.PowerFailures)
	}
	if res.Output[0] != 19900 {
		t.Errorf("output = %v, want [19900]", res.Output)
	}
	if res.PowerFailures == 0 {
		t.Errorf("expected power failures with EB=1500")
	}
	if res.Energy.Reexecution == 0 {
		t.Errorf("rollback run should pay re-execution energy")
	}
	if res.Sleeps != 0 {
		t.Errorf("rollback runtime should not sleep, got %d", res.Sleeps)
	}
}

func TestTriggerCheckpointing(t *testing.T) {
	m := loopProgram(t, 200, 1, true)
	for _, ck := range ir.Checkpoints(m) {
		ck.Kind = ir.CkTrigger
		ck.Every = 0
		ck.SaveAll = true
	}
	cfg := baseCfg()
	cfg.Intermittent = true
	cfg.EB = 3000
	res, err := Run(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Completed || res.Output[0] != 19900 {
		t.Fatalf("verdict=%v output=%v failures=%d", res.Verdict, res.Output, res.PowerFailures)
	}
	// Trigger points fire only below threshold: far fewer saves than the
	// 201 checkpoint executions.
	if res.Saves == 0 || res.Saves > 100 {
		t.Errorf("saves = %d, want a small positive count", res.Saves)
	}
}

func TestVMOverflow(t *testing.T) {
	m := loopProgram(t, 10, 0, true)
	cfg := baseCfg()
	cfg.VMSize = 1 // a scalar needs 2 bytes
	res, err := Run(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != VMOverflow {
		t.Errorf("verdict = %v, want vm-overflow", res.Verdict)
	}
}

func TestPoisonDetection(t *testing.T) {
	// acc allocated to VM but the checkpoint neither saves nor restores it:
	// after the first sleep, reads see poison.
	m := loopProgram(t, 10, 1, true)
	for _, ck := range ir.Checkpoints(m) {
		ck.Save = nil
		ck.Restore = nil
	}
	cfg := baseCfg()
	cfg.Intermittent = true
	cfg.EB = 5000
	res, err := Run(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.UnsyncedReads == 0 {
		t.Errorf("expected poison reads for a broken save/restore set")
	}
	if len(res.Output) == 1 && res.Output[0] == 45 {
		t.Errorf("broken pass still produced the right answer — poison not applied")
	}
}

func TestInputsOverride(t *testing.T) {
	src := `module in
input global data[4] = {1, 1, 1, 1}

func void main() regs 6 {
entry:
  r0 = const 0
  r1 = const 0
  jmp head
head:
  r2 = const 4
  r3 = lt r1, r2
  br r3, body, done
body:
  r4 = load data[r1]
  r0 = add r0, r4
  r5 = const 1
  r1 = add r1, r5
  jmp head
done:
  out r0
  ret
}
`
	m := ir.MustParse(src)
	cfg := baseCfg()
	cfg.Inputs = map[string][]int64{"data": {10, 20, 30, 40}}
	res, err := Run(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Output[0] != 100 {
		t.Errorf("output = %v, want [100]", res.Output)
	}
	// Without override, declared init applies.
	res2, err := Run(m, baseCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res2.Output[0] != 4 {
		t.Errorf("output = %v, want [4]", res2.Output)
	}
}

func TestTraceCallback(t *testing.T) {
	m := loopProgram(t, 3, 0, false)
	var names []string
	cfg := baseCfg()
	cfg.Observer = observerFunc(func(e Event) {
		if e.Kind == EvBlockEnter {
			names = append(names, e.Block.Name)
		}
	})
	if _, err := Run(m, cfg); err != nil {
		t.Fatal(err)
	}
	// entry, head, (body, head) ×3, done
	if len(names) != 2+3*2+1 {
		t.Errorf("trace = %v", names)
	}
	if names[0] != "entry" || names[len(names)-1] != "done" {
		t.Errorf("trace endpoints wrong: %v", names)
	}
}

func TestOutputDeterminismUnderIntermittency(t *testing.T) {
	// Property: for any EB large enough to make progress, a wait-style
	// checkpointed program produces exactly the continuous-power output.
	cont, err := Run(loopProgram(t, 60, 1, true), baseCfg())
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed uint16) bool {
		eb := 380 + float64(seed%4000)
		cfg := baseCfg()
		cfg.Intermittent = true
		cfg.EB = eb
		res, err := Run(loopProgram(t, 60, 1, true), cfg)
		if err != nil {
			return false
		}
		return res.Verdict == Completed &&
			len(res.Output) == 1 &&
			res.Output[0] == cont.Output[0] &&
			res.Energy.Reexecution == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestRunConfigErrors(t *testing.T) {
	m := loopProgram(t, 3, 0, false)
	if _, err := Run(m, Config{}); err == nil {
		t.Errorf("Run accepted nil model")
	}
	cfg := baseCfg()
	cfg.Intermittent = true
	if _, err := Run(m, cfg); err == nil {
		t.Errorf("Run accepted intermittent without EB")
	}
	empty := &ir.Module{Name: "none"}
	if _, err := Run(empty, baseCfg()); err == nil {
		t.Errorf("Run accepted module without main")
	}
	cfg = baseCfg()
	cfg.Hook = &Hook{Commit: func(CommitVisit) bool { return true }}
	if _, err := Run(m, cfg); err == nil {
		t.Errorf("Run accepted a Hook without a Window")
	}
}

func TestOutOfSteps(t *testing.T) {
	src := `module spin
func void main() regs 1 {
entry:
  jmp entry
}
`
	m := ir.MustParse(src)
	cfg := baseCfg()
	cfg.MaxSteps = 1000
	res, err := Run(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != OutOfSteps {
		t.Errorf("verdict = %v, want out-of-steps", res.Verdict)
	}
}

func TestCallsAndReturns(t *testing.T) {
	src := `module calls
global total

func int square(x) regs 2 {
entry:
  r1 = mul r0, r0
  ret r1
}

func void main() regs 6 {
entry:
  r0 = const 7
  r1 = call square(r0)
  store total, r1
  r2 = load total
  out r2
  ret
}
`
	m := ir.MustParse(src)
	res, err := Run(m, baseCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Completed || len(res.Output) != 1 || res.Output[0] != 49 {
		t.Errorf("output = %v verdict = %v", res.Output, res.Verdict)
	}
}

func TestRuntimeErrors(t *testing.T) {
	outOfRange := `module bad
global a[4]
func void main() regs 2 {
entry:
  r0 = const 9
  r1 = load a[r0]
  out r1
  ret
}
`
	if _, err := Run(ir.MustParse(outOfRange), baseCfg()); err == nil {
		t.Errorf("expected out-of-range error")
	}
	divZero := `module bad2
func void main() regs 3 {
entry:
  r0 = const 1
  r1 = const 0
  r2 = div r0, r1
  out r2
  ret
}
`
	if _, err := Run(ir.MustParse(divZero), baseCfg()); err == nil {
		t.Errorf("expected division-by-zero error")
	}
}

// TestTrapAfterBranchSameOnBothPaths: a batch runs on through br/jmp into
// the next block, so a trap there must name that block, and leave the
// same counts, exactly as stepping does.
func TestTrapAfterBranchSameOnBothPaths(t *testing.T) {
	cases := []struct{ name, src, block string }{
		{"load after jmp", `module bad
global a[4]
func void main() regs 2 {
entry:
  r0 = const 9
  jmp next
next:
  r1 = load a[r0]
  out r1
  ret
}
`, "main.next"},
		{"store in loop body", `module bad2
global a[4]
func void main() regs 4 {
entry:
  r0 = const 0
  jmp head
head:
  r1 = const 6
  r2 = lt r0, r1
  br r2, body, done
body:
  store a[r0], r0
  r3 = const 1
  r0 = add r0, r3
  jmp head
done:
  ret
}
`, "main.body"},
		{"div after br", `module bad3
func void main() regs 3 {
entry:
  r0 = const 1
  r1 = const 0
  br r0, zero, done
zero:
  r2 = div r0, r1
  out r2
  ret
done:
  ret
}
`, "main.zero"},
	}
	for _, tc := range cases {
		b := samePaths(t, tc.name, ir.MustParse(tc.src), baseCfg(), nil, false)
		if b.err == nil {
			t.Fatalf("%s: want a trap on both paths", tc.name)
		}
		if !strings.Contains(b.err.Error(), tc.block+":") {
			t.Errorf("%s: error %q does not name %s", tc.name, b.err, tc.block)
		}
	}
}

func TestLedgerTotals(t *testing.T) {
	m := loopProgram(t, 40, 1, true)
	cfg := baseCfg()
	cfg.Intermittent = true
	cfg.EB = 600
	res, err := Run(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	l := res.Energy
	if l.Total() != l.Computation+l.Save+l.Restore+l.Reexecution {
		t.Errorf("Total() inconsistent")
	}
	if l.Intermittency() != l.Save+l.Restore+l.Reexecution {
		t.Errorf("Intermittency() inconsistent")
	}
	// Fig. 7 sub-split stays within computation.
	if l.VMAccessEnergy+l.NVMAccessEnergy+l.NoMemEnergy > l.Computation+1e-6 {
		t.Errorf("sub-split exceeds computation: %v + %v + %v > %v",
			l.VMAccessEnergy, l.NVMAccessEnergy, l.NoMemEnergy, l.Computation)
	}
}

func TestPeriodicTBPFMode(t *testing.T) {
	// A RATCHET-style program under literal periodic failures: it
	// completes and the failure count tracks total-cycles / TBPF.
	// The failure phase is deterministic, so whether a failure lands on a
	// checkpoint boundary (zero loss) or mid-segment (re-execution)
	// depends on the period; sweep a few and require the totals to behave.
	sawReexec := false
	for _, tbpf := range []int64{1987, 2100, 2263} {
		m := ratchetLoopProgram(t, 300)
		cfg := baseCfg()
		cfg.Intermittent = true
		cfg.EB = 1e9 // energy never binds: failures come from the period alone
		cfg.Schedule = Schedules(Exhaustion(), Periodic(tbpf))
		res, err := Run(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Verdict != Completed || res.Output[0] != 44850 {
			t.Fatalf("tbpf %d: verdict=%v output=%v", tbpf, res.Verdict, res.Output)
		}
		if res.PowerFailures == 0 {
			t.Fatalf("tbpf %d: no periodic failures occurred", tbpf)
		}
		approx := res.TotalCycles / tbpf
		if d := res.PowerFailures - int(approx); d < -2 || d > 2 {
			t.Errorf("tbpf %d: failures = %d, want ≈ %d (total cycles %d)",
				tbpf, res.PowerFailures, approx, res.TotalCycles)
		}
		if res.Energy.Reexecution > 0 {
			sawReexec = true
		}
	}
	if !sawReexec {
		t.Errorf("no period produced mid-segment failures with re-execution")
	}
}

func TestPeriodicModeWaitCheckpointsResetPhase(t *testing.T) {
	// A wait-style program whose inter-checkpoint segments are shorter
	// than the period never observes a failure: each sleep restarts TBPF.
	m := loopProgram(t, 50, 1, true)
	cfg := baseCfg()
	cfg.Intermittent = true
	cfg.EB = 1e9
	cfg.Schedule = Schedules(Exhaustion(), Periodic(400)) // one iteration plus checkpoint is well under this
	res, err := Run(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Completed || res.Output[0] != 1225 {
		t.Fatalf("verdict=%v output=%v failures=%d", res.Verdict, res.Output, res.PowerFailures)
	}
	if res.PowerFailures != 0 {
		t.Errorf("failures = %d, want 0 (sleeps reset the period)", res.PowerFailures)
	}
}
