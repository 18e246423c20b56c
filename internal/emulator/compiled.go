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
//     between instructions — no Observer, no Hook, and no schedule
//     beyond capacitor exhaustion, all fixed for the whole emulation —
//     each straight-line run (dispatch.Run, which may end with its
//     block's Br/Jmp) whose precomputed total fits the capacitor with
//     margin executes on that one decision. Ledger sums stay
//     per-instruction, so float results remain bit-identical to
//     stepping.
//   - step/execCompiled: everything else, one instruction at a time,
//     with the hook visit, schedule probe, and charge event at every
//     boundary.
//
// The gate is also what keeps batched energy accounting sound under
// external power models: any non-nil Config.Schedule — including
// harvested-capacitor schedules and trace replays (internal/harvest),
// whose Fail decisions depend on seeing every probe — steps the whole
// run. There is no "safe no-fire window" to negotiate per schedule;
// scheduled runs simply never batch. The dispatch-equivalence suite
// (internal/bench) pins both paths to one golden corpus, harvested
// members included.
func (mc *machine) run() (*Result, error) {
	batch := mc.obs == nil && mc.hook == nil && mc.sched == nil
	for !mc.halted {
		fr := mc.top()
		if batch {
			if err := mc.execBatch(fr); err != nil {
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
// next run fits: within the step limit and, under exhaustion, with its
// precomputed energy plus runSafety still in the capacitor, so no power
// failure can land inside it. A run ending in a Br/Jmp enters the
// target block and batching continues there. The caller has
// established that no schedule, observer or hook can fire, so the only
// remaining interrupts are arithmetic traps, index checks, and VM
// accesses that need the materialization machinery. The first two
// abort the run exactly like step does; the last ends the batch
// *before* the access's accounting, leaving the instruction wholly
// unexecuted for step to replay. Batching also stops at a call, return
// or checkpoint, and when the next run does not fit; step takes over
// there.
//
// Accounting stays per-instruction — the same additions in the same
// order as step — only the decisions are hoisted out.
func (mc *machine) execBatch(fr *frame) error {
	cb := fr.cb
	code := cb.Code
	regs := fr.regs
	// Accumulators live in locals for the duration of the batch. The
	// additions happen in the same per-instruction order as step — only
	// their home moves from memory to registers — so every float result
	// is bit-identical.
	pc := fr.pc
	capEn := mc.capEn
	comp := mc.res.Energy.Computation
	reex := mc.res.Energy.Reexecution
	noMem := mc.res.Energy.NoMemEnergy
	vmE := mc.res.Energy.VMAccessEnergy
	nvmE := mc.res.Energy.NVMAccessEnergy
	vmN := mc.res.Energy.VMAccesses
	nvmN := mc.res.Energy.NVMAccesses
	total := mc.res.TotalCycles
	since := mc.cyclesSincePower
	cyc := mc.res.Cycles
	steps := mc.res.Steps
	done := mc.done
	furthest := mc.furthest
	var err error
batch:
	for pc < len(code) {
		r := &cb.Runs[pc]
		if r.Len == 0 || steps+int64(r.Len) > mc.cfg.MaxSteps ||
			(mc.exhaust && capEn < r.Energy+runSafety) {
			break
		}
		for n := r.Len; n > 0; n-- {
			ci := &code[pc]
			if ci.IsMem && ci.InVM && (mc.vm[ci.Slot] == nil || mc.pending[ci.Slot]) {
				// Needs materialization, deferred-restore charging, or
				// poisoning — before any accounting, so step replays this
				// instruction from scratch.
				break batch
			}
			steps++
			reexec := done < furthest
			capEn -= ci.Energy
			if reexec {
				reex += ci.Energy
			} else if ci.IsMem {
				comp += ci.Energy
				if ci.InVM {
					vmE += ci.Energy
					vmN++
				} else {
					nvmE += ci.Energy
					nvmN++
				}
			} else {
				comp += ci.Energy
				noMem += ci.Energy
			}
			total += ci.Cycles
			since += ci.Cycles
			if !reexec {
				cyc += ci.Cycles
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
				v, everr := ir.EvalOp(ci.Op, regs[ci.A], regs[ci.B])
				if everr != nil {
					// The trapping instruction's accounting stands; pc and
					// progress stay on it, exactly like step.
					err = fmt.Errorf("emulator: %s.%s: %w", fr.fn.Name, fr.cb.IR.Name, everr)
					break batch
				}
				regs[ci.Dst] = v
			case dispatch.CodeLoad:
				idx := 0
				if ci.HasIndex {
					iv := regs[ci.A]
					if iv < 0 || iv >= int64(ci.Var.Elems) {
						err = fmt.Errorf("emulator: %s.%s: index %d out of range for %s[%d]",
							fr.fn.Name, fr.cb.IR.Name, iv, ci.Var.Name, ci.Var.Elems)
						break batch
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
						err = fmt.Errorf("emulator: %s.%s: index %d out of range for %s[%d]",
							fr.fn.Name, fr.cb.IR.Name, iv, ci.Var.Name, ci.Var.Elems)
						break batch
					}
					idx = int(iv)
				}
				if ci.InVM {
					mc.vm[ci.Slot][idx] = regs[ci.A]
					mc.dirty[ci.Slot] = true
				} else {
					// No hook on this path, so no state lanes to keep current.
					mc.nvm[ci.Slot][idx] = regs[ci.A]
				}
			case dispatch.CodeOut:
				mc.out = append(mc.out, regs[ci.A])
			case dispatch.CodeLoopBound, dispatch.CodeBr, dispatch.CodeJmp:
				// metadata; branches are taken once the run is done
			}
			pc++
			done++
			if done > furthest {
				furthest = done
			}
		}
		// The run is done. One ending in a Br/Jmp continues in the target
		// block; any other stopped before a call, return or checkpoint (or
		// at the block end), where step takes over.
		last := &code[pc-1]
		switch last.Code {
		case dispatch.CodeBr:
			cb = last.Else
			if regs[last.A] != 0 {
				cb = last.Then
			}
		case dispatch.CodeJmp:
			cb = last.Then
		default:
			break batch
		}
		fr.cb = cb
		code = cb.Code
		pc = 0
	}
	fr.pc = pc
	mc.capEn = capEn
	mc.res.Energy.Computation = comp
	mc.res.Energy.Reexecution = reex
	mc.res.Energy.NoMemEnergy = noMem
	mc.res.Energy.VMAccessEnergy = vmE
	mc.res.Energy.NVMAccessEnergy = nvmE
	mc.res.Energy.VMAccesses = vmN
	mc.res.Energy.NVMAccesses = nvmN
	mc.res.TotalCycles = total
	mc.cyclesSincePower = since
	mc.res.Cycles = cyc
	mc.res.Steps = steps
	mc.done = done
	mc.furthest = furthest
	// bumpProgress's span close. done only grows, so checking once after
	// the batch clears the flag at the same point step would; obs is nil
	// on this path, so the span-close event never fires.
	if mc.inReexec && done >= furthest {
		mc.inReexec = false
	}
	return err
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
	// energy draw, so the instruction about to run is the one lost.
	if mc.hook != nil {
		mc.visitPoint(PointStep, mc.res.Steps)
	}
	if mc.sched != nil && mc.sched.Fail(mc.probe(PointStep, mc.res.Steps, 0)) {
		mc.induce(PointStep, -1, mc.res.Steps)
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
		if mc.obs != nil {
			mc.emit(Event{Kind: EvBlockEnter, Fn: nf.fn, Block: nf.cb.IR, Call: true})
		}
	case dispatch.CodeOut:
		mc.out = append(mc.out, fr.regs[ci.A])
		fr.pc++
	case dispatch.CodeBr:
		if fr.regs[ci.A] != 0 {
			mc.enterBlock(fr, ci.Then)
		} else {
			mc.enterBlock(fr, ci.Else)
		}
	case dispatch.CodeJmp:
		mc.enterBlock(fr, ci.Then)
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

func (mc *machine) enterBlock(fr *frame, cb *dispatch.Block) {
	fr.cb = cb
	fr.pc = 0
	if mc.obs != nil {
		mc.emit(Event{Kind: EvBlockEnter, Fn: fr.fn, Block: cb.IR})
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
