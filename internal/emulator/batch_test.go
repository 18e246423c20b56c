package emulator

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"schematic/internal/ir"
)

// pathRun is what one run left behind, on a machine the test keeps, so
// a run that traps still shows what it counted.
type pathRun struct {
	res            Result
	err            error
	batched        int64
	done, furthest int64
	windows        []PointVisit
}

// runPath runs m under cfg with observer o, which steps every
// instruction unless it opts out of per-instruction events; hooked adds
// a Hook that keeps every window. A sched that is not nil builds the
// run's schedule, since schedules are stateful.
func runPath(t *testing.T, m *ir.Module, cfg Config, sched func() PowerSchedule, o Observer, hooked bool) pathRun {
	t.Helper()
	var pr pathRun
	if sched != nil {
		cfg.Schedule = sched()
	}
	cfg.Observer = o
	if hooked {
		cfg.Hook = &Hook{Window: func(v PointVisit, _ func() *PersistentState) {
			pr.windows = append(pr.windows, v)
		}}
	}
	cfg.MaxSteps, cfg.MaxFailures = 1_000_000, 10_000
	mc, err := newMachine(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, pr.err = mc.run()
	pr.res, pr.batched, pr.done, pr.furthest = mc.res, mc.batched, mc.done, mc.furthest
	return pr
}

// eventLog keeps every event but EvCharge and EvBlockEnter, which a
// batched run does not send. It opts out of per-instruction events, so
// a run it observes batches; the stepped run's log observes through
// observerFunc.
type eventLog struct{ events []Event }

func (l *eventLog) Event(e Event) {
	if e.Kind == EvCharge || e.Kind == EvBlockEnter {
		return
	}
	l.events = append(l.events, e)
}

func (l *eventLog) Attribution() *Attribution { return nil }

// samePaths requires m under cfg to leave the same Result (every step,
// cycle and access count and every ledger float), error and hook
// windows batched, unobserved and observed, as stepped, and the same
// events as stepped when observed; and both batched runs to batch. A
// sched that is not nil builds a new schedule for each run. It returns
// the unobserved batched run.
func samePaths(t *testing.T, label string, m *ir.Module, cfg Config, sched func() PowerSchedule, hooked bool) pathRun {
	t.Helper()
	var logB, logS eventLog
	s := runPath(t, m, cfg, sched, observerFunc(logS.Event), hooked)
	plain := runPath(t, m, cfg, sched, nil, hooked)
	for i, b := range []pathRun{plain, runPath(t, m, cfg, sched, &logB, hooked)} {
		if fmt.Sprint(b.err) != fmt.Sprint(s.err) {
			t.Fatalf("%s: batched run %d: error differs:\nbatched: %v\nstepped: %v", label, i, b.err, s.err)
		}
		if !reflect.DeepEqual(b.res, s.res) {
			t.Fatalf("%s: batched run %d: results differ:\nbatched: %+v\nstepped: %+v", label, i, b.res, s.res)
		}
		if !reflect.DeepEqual(b.windows, s.windows) {
			t.Fatalf("%s: batched run %d: hook windows differ:\nbatched: %+v\nstepped: %+v", label, i, b.windows, s.windows)
		}
		if b.batched == 0 {
			t.Fatalf("%s: batched run %d batched nothing", label, i)
		}
	}
	if !reflect.DeepEqual(logB.events, logS.events) {
		t.Fatalf("%s: events differ:\nbatched: %+v\nstepped: %+v", label, logB.events, logS.events)
	}
	if s.batched != 0 {
		t.Fatalf("%s: the stepped run batched %d steps", label, s.batched)
	}
	return plain
}

// runFiller is one straight-line run of the cut program: NVM and VM
// loads and stores and arithmetic.
var runFiller = []string{
	"r1 = const 3",
	"r2 = load a[r1]",
	"r3 = add r1, r2",
	"store a[r0], r3",
	"r4 = load w[r0]",
	"r5 = mul r4, r3",
	"store w[r0], r5",
	"r6 = lt r5, r1",
}

// cutProgram enters the straight-line run of block run by a jump, so a
// batch chains into it, with cut inserted before filler instruction
// pos. In run, w and v live in VM; the entry checkpoint brings w in,
// and nothing brings v in. r8 holds an index out of range, and r9 is 0.
func cutProgram(cut string, pos int) *ir.Module {
	run := append(append(append([]string(nil), runFiller[:pos]...), cut), runFiller[pos:]...)
	return ir.MustParse(`module cut
global a[4]
global w[2]
global v[2]
func void main() regs 12 {
entry:
  checkpoint #0 rollback restore w
  r0 = const 0
  r8 = const 99
  jmp run
run:
  vmalloc w,v
  ` + strings.Join(run, "\n  ") + `
  jmp done
done:
  r10 = load a[r0]
  out r10
  ret
}
`)
}

// TestBatchCutsMatchStepping cuts the batch's straight-line run at each
// position, and requires the batched run to count what it ran as step
// counts it: a run cut short by a VM access that needs materialization
// (before the access), by a division by zero or by a load or store
// index out of range (after the trapping instruction, which is a step
// but no progress). An output and, on a hooked run, an NVM store leave
// the batch's loop mid-run too; the hooked store's window must end at
// its own step, so the windows match the stepped run's.
func TestBatchCutsMatchStepping(t *testing.T) {
	cuts := []struct {
		name, instr string
		trap        string // the error the cut raises, if any
		hooked      bool
	}{
		{"vm", "r7 = load v[r0]", "", false},
		{"div", "r7 = div r1, r9", "division by zero", false},
		{"load", "r7 = load a[r8]", "index 99 out of range for a[4]", false},
		{"store", "store a[r8], r1", "index 99 out of range for a[4]", false},
		{"out", "out r3", "", false},
		{"out-hooked", "out r3", "", true},
	}
	for _, c := range cuts {
		for pos := 0; pos <= len(runFiller); pos++ {
			label := fmt.Sprintf("%s@%d", c.name, pos)
			b := samePaths(t, label, cutProgram(c.instr, pos), baseCfg(), nil, c.hooked)
			if c.trap == "" && b.err != nil || c.trap != "" && (b.err == nil || !strings.Contains(b.err.Error(), c.trap)) {
				t.Fatalf("%s: error %v, want %q", label, b.err, c.trap)
			}
			if b.err == nil && (b.res.Energy.VMAccesses == 0 || b.res.Energy.NVMAccesses == 0) {
				t.Fatalf("%s: %+v counts no VM or no NVM access", label, b.res.Energy)
			}
			if c.hooked && len(b.windows) < 2 {
				t.Fatalf("%s: %d hook windows, want the store to close one", label, len(b.windows))
			}
		}
	}
}

// TestBatchStartsInReexecution sweeps the energy budget so power fails
// at every point of the rollback loop: each recovery resumes after a
// checkpoint, and the batch's first run re-executes a prefix of the
// work done before the failure, all of it or none. Its cycles and
// accesses count only from where the prefix ends.
func TestBatchStartsInReexecution(t *testing.T) {
	for _, m := range []*ir.Module{rollbackProgram(t, 40, 3), vmRollbackProgram(t, 40, 3)} {
		for eb := 150.0; eb <= 600; eb += 15 {
			cfg := intermittentCfg()
			cfg.EB = eb
			b := samePaths(t, fmt.Sprintf("%s eb=%g", m.Name, eb), m, cfg, nil, false)
			if b.res.Energy.Reexecution == 0 {
				t.Fatalf("%s eb=%g: no re-execution; the sweep exercises nothing", m.Name, eb)
			}
		}
	}
}

// TestBatchTrapInReexecution: re-execution meets a write its first
// execution made, and the division it feeds traps. The energy budget
// sweeps the first execution's power failure over the run, so in one
// case it failed right after the division: the trap is then the last
// instruction short of the high-water mark, and, being no progress,
// must not close the re-execution span.
func TestBatchTrapInReexecution(t *testing.T) {
	burn := strings.Repeat("  r6 = add r6, r1\n", 24)
	m := ir.MustParse(`module retrap
global a[1]
func void main() regs 8 {
entry:
  r0 = const 0
  r1 = const 1
  store a[r0], r1
` + burn + `  checkpoint #0 rollback
  r2 = load a[r0]
  r3 = sub r2, r1
  store a[r0], r3
  r4 = div r1, r2
  r5 = add r4, r1
  r5 = add r5, r1
  r5 = add r5, r1
  r5 = add r5, r1
  out r5
  ret
}
`)
	edge := 0
	for eb := 60.0; eb <= 140; eb += 0.5 {
		cfg := baseCfg()
		cfg.Intermittent, cfg.EB = true, eb
		b := samePaths(t, fmt.Sprintf("eb=%g", eb), m, cfg, nil, false)
		if b.err != nil && b.res.Energy.Reexecution > 0 && b.furthest-b.done == 1 {
			edge++
		}
	}
	if edge == 0 {
		t.Fatal("no budget traps one instruction short of the high-water mark; the sweep misses the case")
	}
}
