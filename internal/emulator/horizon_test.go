package emulator

import (
	"fmt"
	"strings"
	"testing"

	"schematic/internal/emulator/dispatch"
	"schematic/internal/ir"
)

// longLoopProgram is a loop whose body is one long straight-line run
// ending at a rollback checkpoint that commits every other iteration,
// then the stores it guards: acc += 16·n for n = 0..49. A committing
// checkpoint draws twice (counter and save) for one step, and each
// recovery draws its restore, so the charge ordinal runs ahead of the
// step count as the run goes on.
func longLoopProgram() *ir.Module {
	burn := strings.Repeat("  r5 = add r5, r6\n", 16)
	return ir.MustParse(`module longloop
global acc[1]
global n[1]
func void main() regs 8 {
entry:
  checkpoint #0 wait
  r0 = const 0
  r1 = const 1
  store acc[r0], r0
  store n[r0], r0
  jmp head
head:
  r2 = load n[r0]
  r3 = const 50
  r4 = lt r2, r3
  br r4, body, done
body:
  r5 = load acc[r0]
  r6 = load n[r0]
` + burn + `  r7 = add r6, r1
  checkpoint #1 rollback every 2
  store acc[r0], r5
  store n[r0], r7
  jmp head
done:
  r2 = load acc[r0]
  out r2
  ret
}
`)
}

// longestRun is the length of m's longest straight-line run.
func longestRun(m *ir.Module, cfg Config) int64 {
	var n int64
	for _, f := range dispatch.For(m, cfg.Model).Funcs {
		for _, b := range f.Blocks {
			for _, r := range b.Runs {
				n = max(n, int64(r.Len))
			}
		}
	}
	return n
}

// horizonMembers are the schedule member kinds that fail, each built
// from a sweep parameter k, and their composition.
var horizonMembers = []struct {
	name string
	make func(k int64) PowerSchedule
}{
	{"periodic", func(k int64) PowerSchedule { return Periodic(150 + 13*k) }},
	{"stride", func(k int64) PowerSchedule { return StrideSchedule(40+k, 6) }},
	{"random", func(k int64) PowerSchedule { return RandomSchedule(k, 60, 6) }},
	{"trace-step", func(k int64) PowerSchedule {
		return TraceSchedule(FailPoint{Kind: PointStep, N: 30 + k}, FailPoint{Kind: PointStep, N: 300 + 7*k},
			FailPoint{Kind: PointStep, N: 900 + 11*k})
	}},
	{"trace-charge", func(k int64) PowerSchedule {
		return TraceSchedule(FailPoint{Kind: PointCharge, N: 30 + k}, FailPoint{Kind: PointCharge, N: 300 + 7*k},
			FailPoint{Kind: PointCharge, N: 900 + 11*k})
	}},
	{"composed", func(k int64) PowerSchedule {
		return Schedules(Periodic(700+k), StrideSchedule(300+k, 2), RandomSchedule(k, 400, 2),
			TraceSchedule(FailPoint{Kind: PointStep, N: 50 + k}, FailPoint{Kind: PointCharge, N: 120 + 3*k}))
	}},
}

// TestHorizonsMatchStepping sweeps each member kind that fails, and
// their composition, over two loops, one of short runs with its
// variables in VM and one of long runs. Every run fails at least twice
// and must leave the Result, error and non-per-instruction events of
// its stepped twin (see samePaths). There is no capacitor, so every
// failure is the schedule's, and the level tracked from the small EB
// runs dry between failures, which the events' levels show. It must
// batch up to each fire point: it steps for the schedule's sake at most
// one straight-line run per failure, plus one before the run ends.
func TestHorizonsMatchStepping(t *testing.T) {
	for _, m := range []*ir.Module{vmRollbackProgram(t, 60, 2), longLoopProgram()} {
		longest := longestRun(m, baseCfg())
		for _, mem := range horizonMembers {
			for k := int64(0); k < 40; k++ {
				label := fmt.Sprintf("%s/%s/k=%d", m.Name, mem.name, k)
				cfg := baseCfg()
				cfg.Intermittent, cfg.EB = true, 50
				b := samePaths(t, label, m, cfg, func() PowerSchedule { return mem.make(k) }, false)
				if b.err != nil || b.res.Verdict != Completed {
					t.Fatalf("%s: %v, error %v", label, b.res.Verdict, b.err)
				}
				if b.res.PowerFailures < 2 {
					t.Fatalf("%s: %d power failures, want the schedule to fire at least twice", label, b.res.PowerFailures)
				}
				cfg.Schedule, cfg.Counts = mem.make(k), &Counts{}
				res, err := Run(m, cfg)
				if err != nil {
					t.Fatal(err)
				}
				bound := int64(res.PowerFailures+1) * longest
				if n := cfg.Counts.Stepped(StepSchedule); n > bound {
					t.Fatalf("%s: %d instructions stepped for the schedule, more than (%d failures + 1) × %d, the longest run",
						label, n, res.PowerFailures, longest)
				}
			}
		}
	}
}
