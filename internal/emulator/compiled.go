package emulator

import (
	"errors"
	"fmt"

	"schematic/internal/emulator/dispatch"
	"schematic/internal/ir"
)

// runSafety is the capacitor margin (nJ) required to charge a whole
// straight-line run in one decision. The run's precomputed total is
// summed in a different order than the sequential per-instruction
// subtractions, so the two can differ by float rounding; the margin
// dwarfs any such difference. When the capacitor is within the margin of
// the run's cost — i.e. a power failure could plausibly land inside the
// batch — the machine falls back to per-instruction decisions, which
// resolve the failure point exactly.
const runSafety = 1e-3

// run drives the machine over the precompiled program until a verdict is
// reached. Every instruction executes through one of two executors:
//
//   - execBatch: when nothing can observe or interrupt the emulation
//     between instructions — no Observer that reads per-instruction
//     events (an Attributor's Attribution is filled in their place), and
//     no probe the schedule fails before its horizon —
//     each straight-line run (dispatch.Run, which may end with its
//     block's Br/Jmp) whose precomputed total fits the capacitor with
//     margin, and ends short of the horizon, executes on that one
//     decision. Only the float sums stay per-instruction, so float
//     results remain bit-identical to stepping; the integer counters
//     take the run's precomputed totals once it ends. A supply feeding
//     the capacitor does not keep a run off this path: harvest-in never
//     lowers the level, so the decision on the level before it stays
//     sound, and the run's draws are redone with harvest-in once it ends
//     (see execBatch). Nor does a Hook: the hook sees windows of
//     unchanged persistent state, not single instructions, and a window
//     counts its step points by the step count, so a batch only has to
//     close the window where an NVM store changes a word.
//   - step/execCompiled: everything else, one instruction at a time,
//     with the schedule probe and charge event at every boundary.
//
// A schedule member beside the capacitor fails exactly at the probes
// that reach its horizon (see PowerSchedule): a step, charge or
// save-attempt ordinal, or for Periodic a count of active cycles since
// the last replenishment. The machine keeps the schedule's horizon in
// next, taken at boot and again whenever a probe reaches it, so a batch
// runs up to it and skips only probes that cannot fail; from there the
// run steps. Save points are probed only inside checkpoints, which
// always step. The dispatch-equivalence suite (internal/bench) pins
// both paths to one golden corpus under every member kind, harvested
// capacitors included.
//
// A Counts sees why each stepped instruction stepped: StepObserver when
// nothing batches, else what ended the batch before it. A supply whose
// sample breaks Supply's contract ends the run with a ConfigError, on
// either path (see supplyFault).
func (mc *machine) run() (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			f, ok := r.(supplyFault)
			if !ok {
				panic(r)
			}
			res, err = nil, f.err
		}
	}()
	why, batch := StepObserver, !mc.perInstr
	if mc.track {
		defer mc.closeWindow()
	}
	for !mc.halted {
		fr := mc.top()
		for more := batch; more; {
			var err error
			if why, more, err = mc.execBatch(fr); err != nil {
				return nil, err
			}
		}
		if mc.res.Steps >= mc.cfg.MaxSteps {
			mc.close(OutOfSteps)
			break
		}
		if fr.pc >= len(fr.cb.Code) {
			return nil, fmt.Errorf("emulator: %s.%s: fell off block end", fr.fn.Name, fr.cb.IR.Name)
		}
		if mc.counts != nil {
			mc.counts.stepped[why]++
		}
		finished, err := mc.step(fr)
		if err != nil {
			return nil, err
		}
		if finished {
			mc.res.Verdict = Completed
			break
		}
	}
	mc.res.Output = mc.out
	return &mc.res, nil
}

// execBatch executes straight-line runs from fr.pc for as long as each
// next run fits: within the step limit, short of the schedule's horizon
// and, under exhaustion, with its precomputed energy plus runSafety
// still in the capacitor, so no power failure can land inside it. The
// step limit folds MaxSteps with the horizon's step and charge
// ordinals, once per batch: each batched instruction is one step and
// one draw, so the charge ordinal keeps its distance from the step
// count throughout. A Periodic horizon ends the batch at the run whose
// cycles would reach it. A run ending in a Br/Jmp enters the target
// block and batching continues there. No observer reads the batch's
// instructions and no schedule can fire inside it, so the only
// remaining interrupts are arithmetic traps, index checks, and VM
// accesses that need the materialization machinery. The first two
// abort the run exactly like step does; the last ends the batch
// *before* the access's accounting, leaving the instruction wholly
// unexecuted for step to replay. Batching also stops at a call, return
// or checkpoint, and when the next run does not fit; step takes over
// there, and execBatch returns which of these stopped it.
//
// Only the float sums are made per instruction: the same additions in
// the same order as step, so every float result is bit-identical. The
// integer counters (steps, progress, cycles and access counts) take a
// run's precomputed totals once it ends; a run that starts inside a
// re-executed span counts cycles and accesses from the span's end on,
// and a run cut short takes the difference of two of its tails
// (tally). The loop itself calls nothing, so its state stays in
// registers: a VM access that needs the machinery, and an instruction
// that would call — a trap, an output, or on a hooked run an NVM store,
// which goes through setNVM to close the hook's window before the word
// changes — leave it. The counters take the run up to the VM access, or
// up to and including the calling instruction, which execCompiled
// finishes. A trap ends the batch there; otherwise the run goes on.
//
// An Attributor's Attribution is charged per instruction too: execBatch
// adds each block visit to it as the visit ends, and likewise redoes a
// supplied capacitor's draws. The loop draws without harvest-in, so the
// level it decides on is a lower bound of step's: harvest-in never
// lowers the level. When the visit ends, its draws are redone from the
// level and cycle it began at, instruction by instruction in step's
// order (redraw); that includes a visit cut short, whose trapping
// instruction drew and whose VM access did not. The observer is sent no
// per-instruction event, and the only other event a batch can owe it
// is the EvReexecEnd that closes a re-execution span inside the batch.
// All three are done after the loop, so an attributed or supplied run,
// and an observed one while a span is open, returns at every taken
// branch after entering the target, with more set; the caller batches
// on from there.
func (mc *machine) execBatch(fr *frame) (why StepReason, more bool, err error) {
	cb := fr.cb
	code := cb.Code
	regs := fr.regs
	pc := fr.pc
	// The float accumulators live in locals for the duration of the
	// batch; the integer counters stay in the machine.
	capEn := mc.store.level
	comp := mc.res.Energy.Computation
	reex := mc.res.Energy.Reexecution
	noMem := mc.res.Energy.NoMemEnergy
	vmE := mc.res.Energy.VMAccessEnergy
	nvmE := mc.res.Energy.NVMAccessEnergy
	// The batch must stop short of the next step probe and the next
	// charge probe the schedule fails. Each batched instruction is one
	// step and one draw, so the charge ordinal stays ordinal()-Steps
	// ahead of the step count throughout the batch.
	ahead := mc.ordinal() - mc.res.Steps
	limit := min(mc.cfg.MaxSteps, mc.next.at[PointStep]-1, mc.next.at[PointCharge]-1-ahead)
	// Every step the batch counts is batched: take the count it starts
	// at off now, and add the one it ends at below.
	mc.batched -= mc.res.Steps
	// An attributed batch leaves the loop at every taken branch, into
	// chain, to add the ended visit to the attribution; a supplied one,
	// to redo the visit's draws with harvest-in (redraw); and an observed
	// one while a re-execution span is open, so that the visit holds the
	// span's end. Each happens after the loop, which calls nothing but
	// to finish an instruction that leaves it.
	leave := mc.attr != nil || mc.store.supply != nil || (mc.inReexec && mc.obs != nil)
	if leave {
		mc.visit = blockVisit{pc: pc, steps: mc.res.Steps, done: mc.done, furthest: mc.furthest,
			cycle: mc.res.TotalCycles, level: capEn}
	}
	var chain *dispatch.Block
	why = StepBoundary
batch:
	for pc < len(code) {
		r := &cb.Runs[pc]
		if r.Len == 0 {
			break
		}
		if n := mc.res.Steps + int64(r.Len); n > limit || mc.cyclesSincePower+r.Cycles >= mc.next.period {
			// The schedule fails inside the run, unless it would pass
			// MaxSteps anyway.
			why = StepSchedule
			if n > mc.cfg.MaxSteps {
				why = StepMargin
			}
			break
		}
		if mc.store.enforce && capEn < r.Energy+runSafety {
			why = StepMargin
			break
		}
		end := pc + int(r.Len)
		// The run's instructions before split re-execute. The integer
		// counters stand for its instructions before from.
		split := pc + int(min(max(mc.furthest-mc.done, 0), int64(r.Len)))
		from := pc
		for {
		instrs:
			for ; pc < end; pc++ {
				ci := &code[pc]
				if mc.unresident(ci) {
					// Needs materialization, deferred-restore charging, or
					// poisoning — before any accounting, so step replays this
					// instruction from scratch.
					break instrs
				}
				capEn -= ci.Energy
				if pc < split {
					reex += ci.Energy
				} else {
					comp += ci.Energy
					switch {
					case !ci.IsMem:
						noMem += ci.Energy
					case ci.InVM:
						vmE += ci.Energy
					default:
						nvmE += ci.Energy
					}
				}
				switch ci.Code {
				case dispatch.CodeConst:
					regs[ci.Dst] = ci.Val
				case dispatch.CodeAdd:
					regs[ci.Dst] = regs[ci.A] + regs[ci.B]
				case dispatch.CodeSub:
					regs[ci.Dst] = regs[ci.A] - regs[ci.B]
				case dispatch.CodeMul:
					regs[ci.Dst] = regs[ci.A] * regs[ci.B]
				case dispatch.CodeAnd:
					regs[ci.Dst] = regs[ci.A] & regs[ci.B]
				case dispatch.CodeOr:
					regs[ci.Dst] = regs[ci.A] | regs[ci.B]
				case dispatch.CodeXor:
					regs[ci.Dst] = regs[ci.A] ^ regs[ci.B]
				case dispatch.CodeShl:
					b := regs[ci.B]
					if b < 0 || b > 63 {
						regs[ci.Dst] = 0
					} else {
						regs[ci.Dst] = regs[ci.A] << uint(b)
					}
				case dispatch.CodeShr:
					b := regs[ci.B]
					if b < 0 || b > 63 {
						regs[ci.Dst] = 0
					} else {
						regs[ci.Dst] = int64(uint64(regs[ci.A]) >> uint(b))
					}
				case dispatch.CodeEq:
					regs[ci.Dst] = b2i(regs[ci.A] == regs[ci.B])
				case dispatch.CodeNe:
					regs[ci.Dst] = b2i(regs[ci.A] != regs[ci.B])
				case dispatch.CodeLt:
					regs[ci.Dst] = b2i(regs[ci.A] < regs[ci.B])
				case dispatch.CodeLe:
					regs[ci.Dst] = b2i(regs[ci.A] <= regs[ci.B])
				case dispatch.CodeGt:
					regs[ci.Dst] = b2i(regs[ci.A] > regs[ci.B])
				case dispatch.CodeGe:
					regs[ci.Dst] = b2i(regs[ci.A] >= regs[ci.B])
				case dispatch.CodeNeg:
					regs[ci.Dst] = -regs[ci.A]
				case dispatch.CodeNot:
					regs[ci.Dst] = b2i(regs[ci.A] == 0)
				case dispatch.CodeBin:
					// ir.EvalOp's division and remainder; it traps on a zero
					// divisor, and on any other operator.
					a, b := regs[ci.A], regs[ci.B]
					switch {
					case b != 0 && ci.Op == ir.OpDiv:
						regs[ci.Dst] = a / b
					case b != 0 && ci.Op == ir.OpRem:
						regs[ci.Dst] = a % b
					default:
						break instrs
					}
				case dispatch.CodeLoad:
					idx := 0
					if ci.HasIndex {
						iv := regs[ci.A]
						if iv < 0 || iv >= int64(ci.Var.Elems) {
							break instrs
						}
						idx = int(iv)
					}
					if ci.InVM {
						regs[ci.Dst] = mc.vm[ci.Slot][idx]
					} else {
						regs[ci.Dst] = mc.nvm[ci.Slot][idx]
					}
				case dispatch.CodeStore:
					idx := 0
					if ci.HasIndex {
						iv := regs[ci.B]
						if iv < 0 || iv >= int64(ci.Var.Elems) {
							break instrs
						}
						idx = int(iv)
					}
					switch {
					case ci.InVM:
						mc.vm[ci.Slot][idx] = regs[ci.A]
						mc.dirty[ci.Slot] = true
					case mc.track:
						break instrs
					default:
						mc.nvm[ci.Slot][idx] = regs[ci.A]
					}
				case dispatch.CodeOut:
					break instrs
				case dispatch.CodeLoopBound, dispatch.CodeBr, dispatch.CodeJmp:
					// metadata; branches are taken once the run is done
				}
			}
			if pc == end {
				break
			}
			if mc.unresident(&code[pc]) {
				// The loop left before this VM access's accounting, and
				// nothing since changed its residency: it is no step yet,
				// and step replays it.
				why = StepVM
				mc.tally(cb.Runs, from, pc, split)
				mc.progress(pc - from)
				break batch
			}
			// The instruction at pc left the loop to call. Its accounting
			// stands, and the counters count it as a step; the stepped
			// executor finishes it. A hooked NVM store's window ends there.
			mc.tally(cb.Runs, from, pc+1, split)
			mc.progress(pc - from)
			if _, e := mc.execCompiled(fr, &code[pc]); e != nil {
				// A trap: pc and progress stay on the instruction, exactly
				// like step.
				err = e
				break batch
			}
			mc.progress(1)
			pc++
			from = pc
		}
		// The run is done. Its instructions the counters do not stand for
		// yet, those from `from` on, are a run of their own, whose totals
		// they take; cycles and accesses count from split on, where the
		// re-executed prefix ends.
		if from < end {
			tail := &cb.Runs[from]
			mc.res.Steps += int64(tail.Len)
			mc.res.TotalCycles += tail.Cycles
			mc.cyclesSincePower += tail.Cycles
			mc.done += int64(tail.Len)
			mc.furthest = max(mc.furthest, mc.done)
			if s := max(split, from); s < end {
				first := &cb.Runs[s]
				mc.res.Cycles += first.Cycles
				mc.res.Energy.VMAccesses += int64(first.VMAccesses)
				mc.res.Energy.NVMAccesses += int64(first.NVMAccesses)
			}
		}
		// One ending in a Br/Jmp continues in the target block; any other
		// stopped before a call, return or checkpoint (or at the block end),
		// where step takes over, or where Compile ended it early.
		last := &code[pc-1]
		next, succ := last.Then, 0
		switch last.Code {
		case dispatch.CodeBr:
			if regs[last.A] == 0 {
				next, succ = last.Else, 1
			}
		case dispatch.CodeJmp:
		default:
			continue
		}
		if mc.counts != nil {
			mc.counts.taken[2*cb.ID()+succ]++
		}
		if leave {
			chain = next
			break
		}
		cb = next
		fr.cb = cb
		code = cb.Code
		pc = 0
	}
	if mc.inReexec && mc.done >= mc.furthest {
		// bumpProgress's span close. With an observer the batch left the
		// loop at each branch, so the closing instruction is in this
		// visit: done-F completed instructions (F, where the span ends, is
		// the high-water mark the visit began at), and a trapping one,
		// followed it.
		endCycle, endStep := mc.res.TotalCycles, mc.res.Steps
		if mc.obs != nil {
			k := int(mc.done - mc.visit.furthest)
			for i := pc - k; i < pc; i++ {
				endCycle -= code[i].Cycles
			}
			endStep -= int64(k)
			if err != nil {
				endCycle, endStep = endCycle-code[pc].Cycles, endStep-1
			}
		}
		mc.endReexec(endCycle, endStep)
	}
	fr.pc = pc
	// Without a capacitor member nothing refuses a draw, and step floors
	// each one at 0: once there, the level stays there, while capEn,
	// never floored, stays below it. One floor here lands on the same
	// level. A capacitor's batch never takes capEn below runSafety.
	mc.store.level = clamp(capEn, mc.store.capacity)
	mc.res.Energy.Computation = comp
	mc.res.Energy.Reexecution = reex
	mc.res.Energy.NoMemEnergy = noMem
	mc.res.Energy.VMAccessEnergy = vmE
	mc.res.Energy.NVMAccessEnergy = nvmE
	mc.batched += mc.res.Steps
	if mc.store.supply != nil {
		mc.redraw(cb, mc.res.Steps)
	}
	if mc.attr != nil {
		mc.attributeVisit(fr.fn, cb, mc.res.Steps, chain)
	}
	if chain != nil {
		fr.cb, fr.pc = chain, 0
	}
	return why, chain != nil, err
}

// unresident reports whether ci is a VM access that needs the
// materialization machinery: materialization, a deferred restore's
// charge, or poisoning.
func (mc *machine) unresident(ci *dispatch.Instr) bool {
	return ci.IsMem && ci.InVM && (mc.vm[ci.Slot] == nil || mc.pending[ci.Slot])
}

// tally adds the instructions from `from` up to `to` of a straight-line
// run that re-executes before split to the integer counters as step
// counts them: a step and its cycles for each, and for each from split
// on its cycles as first-execution ones and its access. Each pc inside
// a run starts the rest of it, so these are differences of the rests at
// from (or split) and at to, where none is left at the run's end. The
// batch adds a whole run's totals at once; this is the path for a run
// cut short.
func (mc *machine) tally(runs []dispatch.Run, from, to, split int) {
	if from >= to {
		return
	}
	var rest dispatch.Run
	if to < from+int(runs[from].Len) {
		rest = runs[to]
	}
	all := &runs[from]
	mc.res.Steps += int64(all.Len - rest.Len)
	mc.res.TotalCycles += all.Cycles - rest.Cycles
	mc.cyclesSincePower += all.Cycles - rest.Cycles
	if s := max(split, from); s < to {
		first := &runs[s]
		mc.res.Cycles += first.Cycles - rest.Cycles
		mc.res.Energy.VMAccesses += int64(first.VMAccesses) - int64(rest.VMAccesses)
		mc.res.Energy.NVMAccesses += int64(first.NVMAccesses) - int64(rest.NVMAccesses)
	}
}

// progress advances the progress index past n completed instructions,
// as bumpProgress does one by one, short of closing a re-execution span.
func (mc *machine) progress(n int) {
	mc.done += int64(n)
	mc.furthest = max(mc.furthest, mc.done)
}

// blockVisit is where a batched visit of one block started: its pc, the
// batch's step, progress, high-water and cycle counters there, and the
// capacitor level.
type blockVisit struct {
	pc                           int
	steps, done, furthest, cycle int64
	level                        float64
}

// attributeVisit adds the batched visit of block cb of fn that began at
// mc.visit, now that the batch's step count stands at steps, to the
// observer's attribution as step would have charged it: instruction by
// instruction in the order they ran, the re-executed ones to the site
// execution resumed from, the rest to the block. Every instruction the
// visit charged counts, a trapping one included. The batch chains on
// into next, when not nil, which counts as its entry.
func (mc *machine) attributeVisit(fn *ir.Func, cb *dispatch.Block, steps int64, next *dispatch.Block) {
	if next != nil {
		mc.attr.block(next.ID(), fn, next.IR).Entries++
	}
	v := mc.visit
	code := cb.Code[v.pc : v.pc+int(steps-v.steps)]
	i := 0
	if re := v.furthest - v.done; re > 0 && len(code) > 0 {
		s := mc.attr.site(mc.chargeSite(ChargeReexec), fn, cb.IR)
		for ; i < len(code) && int64(i) < re; i++ {
			s.Reexec += code[i].Energy
		}
	}
	if i == len(code) {
		return
	}
	b := mc.attr.block(cb.ID(), fn, cb.IR)
	for ; i < len(code); i++ {
		ci := &code[i]
		b.Compute += ci.Energy
		if ci.IsMem {
			if ci.InVM {
				b.VMAccess += ci.Energy
				b.VMAccesses++
			} else {
				b.NVMAccess += ci.Energy
				b.NVMAccesses++
			}
		}
	}
}

// redraw redoes the draws of the batched visit of block cb that began
// at mc.visit, now that the batch's step count stands at steps, on a
// supplied capacitor, as charge makes them on the stepped path: for each
// instruction that drew, a trapping one included, harvest-in up to the
// cycle it starts at, clamped to capacity, then its draw. It starts from
// the level and cycle count the visit began at, and leaves the level
// where the visit ends.
func (mc *machine) redraw(cb *dispatch.Block, steps int64) {
	v := mc.visit
	code := cb.Code[v.pc : v.pc+int(steps-v.steps)]
	level, now := v.level, v.cycle
	for i := range code {
		level = clamp(mc.store.harvested(level, now)-code[i].Energy, mc.store.capacity)
		now += code[i].Cycles
	}
	mc.store.level = level
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// step executes one instruction: the hook visit and schedule probe at
// the instruction boundary, the charge, then the state change. It
// returns true when main has returned.
func (mc *machine) step(fr *frame) (bool, error) {
	ci := &fr.cb.Code[fr.pc]
	mc.res.Steps++

	// Instruction-boundary injection point: periodic TBPF failures,
	// trace/random/stride schedules. The probe precedes the instruction's
	// energy draw, so the instruction about to run is the one lost. The
	// hook's window counts it by the step count alone.
	if n := mc.res.Steps; n >= mc.next.at[PointStep] || mc.cyclesSincePower >= mc.next.period {
		mc.induce(PointStep, -1, n)
		mc.powerFailure()
		return false, nil
	}

	// Checkpoints manage their own energy and progress accounting.
	if ci.Code == dispatch.CodeCheckpoint {
		return false, mc.execCheckpoint(ci.Ck)
	}

	reexec := mc.done < mc.furthest
	var ok bool
	if ci.IsMem {
		if ci.InVM {
			ok = mc.charge(ci.Energy, chVMAcc)
		} else {
			ok = mc.charge(ci.Energy, chNVMAcc)
		}
	} else {
		ok = mc.charge(ci.Energy, chComp)
		if ok && !reexec {
			mc.res.Energy.NoMemEnergy += ci.Energy
		}
	}
	if !ok {
		mc.powerFailure()
		return false, nil
	}
	mc.res.TotalCycles += ci.Cycles
	mc.cyclesSincePower += ci.Cycles
	if !reexec {
		mc.res.Cycles += ci.Cycles
	}

	halt, err := mc.execCompiled(fr, ci)
	if errors.Is(err, errInterrupt) {
		return false, nil
	}
	if err != nil || halt {
		return halt, err
	}
	mc.bumpProgress()
	return false, nil
}

// execCompiled performs the state change of a non-checkpoint
// instruction. It returns true when the program has completed.
func (mc *machine) execCompiled(fr *frame, ci *dispatch.Instr) (bool, error) {
	switch ci.Code {
	case dispatch.CodeLoopBound:
		fr.pc++ // metadata only
	case dispatch.CodeConst:
		fr.regs[ci.Dst] = ci.Val
		fr.pc++
	case dispatch.CodeAdd:
		fr.regs[ci.Dst] = fr.regs[ci.A] + fr.regs[ci.B]
		fr.pc++
	case dispatch.CodeSub:
		fr.regs[ci.Dst] = fr.regs[ci.A] - fr.regs[ci.B]
		fr.pc++
	case dispatch.CodeMul:
		fr.regs[ci.Dst] = fr.regs[ci.A] * fr.regs[ci.B]
		fr.pc++
	case dispatch.CodeAnd:
		fr.regs[ci.Dst] = fr.regs[ci.A] & fr.regs[ci.B]
		fr.pc++
	case dispatch.CodeOr:
		fr.regs[ci.Dst] = fr.regs[ci.A] | fr.regs[ci.B]
		fr.pc++
	case dispatch.CodeXor:
		fr.regs[ci.Dst] = fr.regs[ci.A] ^ fr.regs[ci.B]
		fr.pc++
	case dispatch.CodeShl:
		b := fr.regs[ci.B]
		if b < 0 || b > 63 {
			fr.regs[ci.Dst] = 0
		} else {
			fr.regs[ci.Dst] = fr.regs[ci.A] << uint(b)
		}
		fr.pc++
	case dispatch.CodeShr:
		b := fr.regs[ci.B]
		if b < 0 || b > 63 {
			fr.regs[ci.Dst] = 0
		} else {
			fr.regs[ci.Dst] = int64(uint64(fr.regs[ci.A]) >> uint(b))
		}
		fr.pc++
	case dispatch.CodeEq:
		fr.regs[ci.Dst] = b2i(fr.regs[ci.A] == fr.regs[ci.B])
		fr.pc++
	case dispatch.CodeNe:
		fr.regs[ci.Dst] = b2i(fr.regs[ci.A] != fr.regs[ci.B])
		fr.pc++
	case dispatch.CodeLt:
		fr.regs[ci.Dst] = b2i(fr.regs[ci.A] < fr.regs[ci.B])
		fr.pc++
	case dispatch.CodeLe:
		fr.regs[ci.Dst] = b2i(fr.regs[ci.A] <= fr.regs[ci.B])
		fr.pc++
	case dispatch.CodeGt:
		fr.regs[ci.Dst] = b2i(fr.regs[ci.A] > fr.regs[ci.B])
		fr.pc++
	case dispatch.CodeGe:
		fr.regs[ci.Dst] = b2i(fr.regs[ci.A] >= fr.regs[ci.B])
		fr.pc++
	case dispatch.CodeNeg:
		fr.regs[ci.Dst] = -fr.regs[ci.A]
		fr.pc++
	case dispatch.CodeNot:
		fr.regs[ci.Dst] = b2i(fr.regs[ci.A] == 0)
		fr.pc++
	case dispatch.CodeBin:
		v, err := ir.EvalOp(ci.Op, fr.regs[ci.A], fr.regs[ci.B])
		if err != nil {
			return false, fmt.Errorf("emulator: %s.%s: %w", fr.fn.Name, fr.cb.IR.Name, err)
		}
		fr.regs[ci.Dst] = v
		fr.pc++
	case dispatch.CodeLoad:
		idx, err := elemIndex(ci, ci.A, fr)
		if err != nil {
			return false, err
		}
		var val int64
		if ci.InVM {
			arr := mc.vmStorage(ci.Slot, ci.Var, true)
			if arr == nil {
				return false, errInterrupt
			}
			val = arr[idx]
		} else {
			val = mc.nvm[ci.Slot][idx]
		}
		fr.regs[ci.Dst] = val
		fr.pc++
	case dispatch.CodeStore:
		idx, err := elemIndex(ci, ci.B, fr)
		if err != nil {
			return false, err
		}
		val := fr.regs[ci.A]
		if ci.InVM {
			arr := mc.vmStorage(ci.Slot, ci.Var, false)
			if arr == nil {
				return false, errInterrupt
			}
			arr[idx] = val
			mc.dirty[ci.Slot] = true
		} else {
			mc.setNVM(ci.Slot, idx, val)
		}
		fr.pc++
	case dispatch.CodeCall:
		fr.pc++ // return continues after the call
		cf := ci.Callee
		nf := frame{
			fn:      cf.IR,
			cb:      cf.Entry,
			regs:    mc.newRegs(cf.IR.NumRegs),
			retReg:  ir.Reg(ci.Dst),
			wantRet: ci.HasDst,
		}
		for i, a := range ci.Args {
			nf.regs[i] = fr.regs[a]
		}
		mc.frames = append(mc.frames, nf)
		if mc.counts != nil {
			mc.counts.calls[cf.ID()]++
		}
		if mc.attr != nil || mc.perInstr {
			mc.entered(nf.fn, cf.Entry, true)
		}
	case dispatch.CodeOut:
		mc.out = append(mc.out, fr.regs[ci.A])
		fr.pc++
	case dispatch.CodeBr:
		if fr.regs[ci.A] != 0 {
			mc.enterBlock(fr, ci.Then, 0)
		} else {
			mc.enterBlock(fr, ci.Else, 1)
		}
	case dispatch.CodeJmp:
		mc.enterBlock(fr, ci.Then, 0)
	case dispatch.CodeRet:
		var val int64
		if ci.HasDst { // Ret: HasDst carries HasSrc
			val = fr.regs[ci.A]
		}
		if mc.obs != nil {
			mc.emit(Event{Kind: EvFuncReturn, Fn: fr.fn})
		}
		// The popped frame's registers go back to the pool; snapshots
		// deep-copy register arrays, so no live state aliases them.
		mc.regPool = append(mc.regPool, fr.regs)
		mc.frames = mc.frames[:len(mc.frames)-1]
		if len(mc.frames) == 0 {
			return true, nil
		}
		if fr.wantRet {
			mc.top().regs[fr.retReg] = val
		}
	default:
		return false, fmt.Errorf("emulator: unknown instruction %T", ci.IR)
	}
	return false, nil
}

// enterBlock takes successor succ (0: Then or Jmp target, 1: Else) of
// the executing block's branch.
func (mc *machine) enterBlock(fr *frame, cb *dispatch.Block, succ int) {
	if mc.counts != nil {
		mc.counts.taken[2*fr.cb.ID()+succ]++
	}
	fr.cb = cb
	fr.pc = 0
	if mc.attr != nil || mc.perInstr {
		mc.entered(fr.fn, cb, false)
	}
}

// elemIndex resolves a memory instruction's element index; idxReg is the
// operand field holding the index register (A for loads, B for stores).
func elemIndex(ci *dispatch.Instr, idxReg int32, fr *frame) (int, error) {
	if !ci.HasIndex {
		return 0, nil
	}
	idx := fr.regs[idxReg]
	if idx < 0 || idx >= int64(ci.Var.Elems) {
		return 0, fmt.Errorf("emulator: %s.%s: index %d out of range for %s[%d]",
			fr.fn.Name, fr.cb.IR.Name, idx, ci.Var.Name, ci.Var.Elems)
	}
	return int(idx), nil
}
