package emulator

import (
	"schematic/internal/emulator/dispatch"
	"schematic/internal/ir"
)

// Counts is the control-flow profile of one or more runs of a module:
// how often each function was entered (by a call, or by main's boot),
// how often each block's terminator went to each of its successors, and
// how many instructions ran: in total, on the batched path, and on the
// stepped path by reason. Attach one through Config.Counts; runs add to
// it.
//
// A Counts is sized on its first run and bound to that run's module. A
// later run of a different module, or of the same module after an
// in-place edit changed its compiled form, fails with a ConfigError for
// Counts. The counting sites are exactly the block entries that execute
// code: main's boot (including a cold restart, after a power failure or
// from a resumed state with no recovery point), calls, and taken
// branches on both the stepped and the batched path. The replay of a
// restored call stack after a power failure (or when a run boots from
// Config.Resume) is not execution and is not counted; blocks
// re-executed after the recovery point are.
//
// Counting never forces the stepped path and never changes a Result.
// A Counts is not safe for concurrent runs: give each goroutine its own.
type Counts struct {
	binding // the program the counts were sized for

	calls   []int64 // by function ordinal
	taken   []int64 // by 2×block ordinal + successor index
	steps   int64
	batched int64
	stepped [numStepReasons]int64
}

// bindTo sizes the counts for prog on first use and afterwards rejects
// a run of another module, or of this one after an in-place edit.
func (c *Counts) bindTo(m *ir.Module, prog *dispatch.Program) error {
	fresh, err := c.bind("Counts", m, prog)
	if fresh {
		c.calls = make([]int64, len(prog.Funcs))
		c.taken = make([]int64, 2*prog.NumBlocks())
	}
	return err
}

// Calls returns how often f was entered: by calls, and for main by its
// boot (cold restarts included).
func (c *Counts) Calls(f *ir.Func) int64 {
	if c.prog == nil {
		return 0
	}
	if cf := c.prog.FuncOf(f); cf != nil {
		return c.calls[cf.ID()]
	}
	return 0
}

// Taken returns how often b's terminator went to b.Succs()[succ]: the
// Then target of a Br is successor 0 and its Else target 1; a Jmp's
// target is successor 0.
func (c *Counts) Taken(b *ir.Block, succ int) int64 {
	if c.prog == nil || succ < 0 || succ > 1 {
		return 0
	}
	if cb := c.prog.BlockOf(b); cb != nil {
		return c.taken[2*cb.ID()+succ]
	}
	return 0
}

// Steps returns the instructions the counted runs executed (the sum of
// their Result.Steps).
func (c *Counts) Steps() int64 { return c.steps }

// BatchedSteps returns how many of Steps ran on the batched path.
func (c *Counts) BatchedSteps() int64 { return c.batched }

// Stepped returns how many of Steps ran on the stepped path for the
// given reason. The reasons partition the stepped instructions, so they
// sum to Steps − BatchedSteps.
func (c *Counts) Stepped(r StepReason) int64 {
	if r >= numStepReasons {
		return 0
	}
	return c.stepped[r]
}

// StepReason says why an instruction ran on the stepped path.
// StepObserver keeps a whole run off the batched path; the rest stop
// one batch.
type StepReason uint8

const (
	// StepObserver: the run's observer reads per-instruction events.
	StepObserver StepReason = iota
	// StepSchedule: the schedule fails inside the next straight-line
	// run, which reaches the horizon of a member (Periodic,
	// StrideSchedule, RandomSchedule, TraceSchedule).
	StepSchedule
	// StepMargin: the next straight-line run does not fit otherwise. Its
	// energy is within runSafety of the capacitor level, or it would
	// pass MaxSteps.
	StepMargin
	// StepVM: a VM access needs materialization, a deferred restore or
	// poisoning.
	StepVM
	// StepBoundary: a call, return or checkpoint.
	StepBoundary

	numStepReasons
)
