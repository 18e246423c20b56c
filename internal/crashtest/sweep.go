package crashtest

import (
	"context"
	"fmt"
	"time"

	"schematic/internal/emulator"
)

// NamedSchedule labels a factory for fresh power-schedule instances.
// Schedules are stateful single-run values, so a sweep needs a factory,
// not an instance; eb is the case's derived energy budget (harvested
// capacitor sizing).
type NamedSchedule struct {
	Name string
	Make func(eb float64) (emulator.PowerSchedule, error)
}

// SweepResult is one case × schedule cell of a power-environment sweep.
// A violation is any Outcome with Class != ClassNone.
type SweepResult struct {
	Case     Case
	Schedule string
	Outcome  Outcome
}

// Violation reports whether this cell broke its oracle.
func (r SweepResult) Violation() bool { return r.Outcome.Class != ClassNone }

// PowerResult is one case's outcome in a power-environment sweep.
type PowerResult struct {
	Case Case
	// Cells: one per schedule, or the lone "exhaustion" cell of a
	// baseline violation.
	Cells []SweepResult
	Status
}

// String is the case's progress line.
func (r PowerResult) String() string {
	id := fmt.Sprintf("%s/%s", r.Case.Name, r.Case.Technique)
	el := r.Elapsed.Round(time.Millisecond)
	switch {
	case r.Err != nil:
		return fmt.Sprintf("ERROR %-28s %v", id, r.Err)
	case r.Skipped != "":
		return fmt.Sprintf("skip  %-28s %s", id, r.Skipped)
	}
	for _, c := range r.Cells {
		if c.Violation() {
			return fmt.Sprintf("FAIL  %-28s %s under %s in %v", id, c.Outcome.Class, c.Schedule, el)
		}
	}
	return fmt.Sprintf("ok    %-28s %d schedule(s) in %v", id, len(r.Cells), el)
}

// Sweep runs every case once under every named power schedule on the
// case driver, classifying each run against the continuous-power oracle
// — the harvested-environment analogue of Run's injection pass. Each
// case first passes Hunt's baseline gate (see Baseline): a baseline
// violation is its only cell, named "exhaustion". Unlike the hunt, a
// wait-style placement that kept its contract is swept too: a harvested
// supply, unlike an injected failure, stays within that contract.
// Options that fail Validate are every case's Err, and nothing runs.
func (h *Hunter) Sweep(ctx context.Context, cases []Case, scheds []NamedSchedule) []PowerResult {
	invalid := h.Opts.Validate()
	judge := func(ctx context.Context, cs Case, deadline time.Time) ([]SweepResult, error) {
		if invalid != nil {
			return nil, invalid
		}
		b, err := build(cs)
		if err != nil {
			return nil, err
		}
		base, err := b.Baseline(h.Opts, "exhaustion")
		if err != nil {
			return nil, err
		}
		if f := base.Finding; f != nil {
			return []SweepResult{{Case: b.cs, Schedule: "exhaustion", Outcome: Outcome{Class: f.Class, Detail: f.Detail, Res: base.Res}}}, nil
		}
		cells := make([]SweepResult, 0, len(scheds))
		for _, ns := range scheds {
			if err := interrupted(ctx, deadline, "sweep"); err != nil {
				return nil, err
			}
			sched, err := ns.Make(b.eb)
			if err != nil {
				return nil, fmt.Errorf("crashtest: schedule %s for case %s: %w", ns.Name, cs.Name, err)
			}
			cells = append(cells, SweepResult{Case: b.cs, Schedule: ns.Name, Outcome: b.runOnce(sched, base.MaxSteps)})
		}
		return cells, nil
	}
	return Drive(ctx, h.driver(), cases, h.Opts.Deadline, judge, func(cs Case, cells []SweepResult, st Status) PowerResult {
		return PowerResult{Case: cs, Cells: cells, Status: st}
	})
}
