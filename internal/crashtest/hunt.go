package crashtest

import (
	"context"
	"fmt"
	"sort"

	"schematic/internal/emulator"
	"schematic/internal/fuzzgen"
)

// Finding is one confirmed, shrunk, replayable counterexample.
type Finding struct {
	Case     Case         `json:"case"`
	Schedule ScheduleSpec `json:"schedule"`
	Class    Class        `json:"class"`
	Detail   string       `json:"detail"`
	// FoundBy names the schedule family that first hit the violation,
	// before normalization and shrinking.
	FoundBy string `json:"found_by"`
}

// candidate is one adversarial schedule to try: a label for reporting
// and a factory (schedules are stateful, so every run needs a fresh one).
type candidate struct {
	label string
	make  func() emulator.PowerSchedule
}

// tracePoints builds an exhaustion+trace candidate.
func tracePoints(label string, pts ...emulator.FailPoint) candidate {
	return candidate{label: label, make: func() emulator.PowerSchedule {
		return emulator.Schedules(emulator.Exhaustion(), emulator.TraceSchedule(pts...))
	}}
}

// sampleInt64 returns exactly min(n, max) distinct values over [1, max],
// in ascending order: the even spread first, then — when the spread
// collides on a small range — the unused points closest to 1, so a
// sampling budget of n always buys n distinct injection points.
func sampleInt64(max int64, n int) []int64 {
	if max <= 0 || n <= 0 {
		return nil
	}
	if int64(n) >= max {
		out := make([]int64, 0, max)
		for i := int64(1); i <= max; i++ {
			out = append(out, i)
		}
		return out
	}
	out := make([]int64, 0, n)
	seen := make(map[int64]bool, n)
	add := func(v int64) {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	if n == 1 {
		add(1 + (max-1)/2)
	}
	for i := 0; i < n && n > 1; i++ {
		// 1-based, spread across the range with both endpoints covered.
		add(1 + (max-1)*int64(i)/int64(n-1))
	}
	for v := int64(1); v <= max && len(out) < n; v++ {
		add(v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// enumerate builds the adversarial schedule set for one case, sized by
// the baseline run: exhaustive (or sampled) instruction boundaries,
// the three save-phase points on sampled save attempts, step pairs,
// strides, and seeded-random schedules.
func enumerate(baseline *emulator.Result, cs Case, opts Options) []candidate {
	var cands []candidate
	steps := baseline.Steps

	// Instruction boundaries: exhaustive for small programs, sampled
	// above the limit.
	var stepList []int64
	if steps <= opts.ExhaustiveStepLimit {
		stepList = sampleInt64(steps, int(steps))
	} else {
		stepList = sampleInt64(steps, opts.SampledSteps)
	}
	for _, s := range stepList {
		cands = append(cands, tracePoints(fmt.Sprintf("step@%d", s),
			emulator.FailPoint{Kind: emulator.PointStep, N: s}))
	}

	// Save-phase points: before, mid (torn), after each sampled attempt.
	for _, a := range sampleInt64(baseline.SaveAttempts, opts.SampledSaves) {
		for _, k := range []emulator.PointKind{
			emulator.PointBeforeSave, emulator.PointMidSave, emulator.PointAfterSave,
		} {
			cands = append(cands, tracePoints(fmt.Sprintf("%v@%d", k, a),
				emulator.FailPoint{Kind: k, N: a}))
		}
	}

	// Step pairs: a failure plus a second one mid-recovery, probing
	// failure-during-re-execution windows.
	if steps > 4 {
		for _, s := range sampleInt64(steps, 4) {
			second := s + steps/7 + 1
			cands = append(cands, tracePoints(fmt.Sprintf("step@%d+step@%d", s, second),
				emulator.FailPoint{Kind: emulator.PointStep, N: s},
				emulator.FailPoint{Kind: emulator.PointStep, N: second}))
		}
	}

	// Strides: every Nth boundary, failure count capped below the
	// stagnation threshold.
	for _, div := range []int64{5, 3} {
		n := steps/div + 1
		cands = append(cands, candidate{
			label: fmt.Sprintf("stride(%d)", n),
			make: func() emulator.PowerSchedule {
				return emulator.Schedules(emulator.Exhaustion(),
					emulator.StrideSchedule(n, randomFailures))
			},
		})
	}

	// Seeded-random schedules, derived deterministically from the case.
	mean := steps/16 + 1
	for i := 0; i < opts.RandomSchedules; i++ {
		seed := cs.InputSeed*1_000_003 + int64(i)
		cands = append(cands, candidate{
			label: fmt.Sprintf("random(seed=%d,mean=%d)", seed, mean),
			make: func() emulator.PowerSchedule {
				return emulator.Schedules(emulator.Exhaustion(),
					emulator.RandomSchedule(seed, mean, randomFailures))
			},
		})
	}
	return cands
}

// Hunt validates opts, builds the case, passes it through the baseline
// gate (see Baseline), then tries every adversarial schedule. It returns
// nil when no violation exists, a shrunk Finding when one does, and an
// error (SkipError for ineligible cases) otherwise. A context deadline
// tightens Options.Deadline (the hunt reports a skip when it expires
// mid-enumeration); cancellation returns ctx.Err() directly.
func Hunt(ctx context.Context, cs Case, opts Options) (*Finding, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	ctxDeadline, _ := ctx.Deadline()
	opts.Deadline = earliest(opts.Deadline, ctxDeadline)
	b, err := build(cs)
	if err != nil {
		return nil, err
	}
	// A kept wait contract is verified: injected failures would break an
	// assumption the hardware enforces, not the placement.
	base, err := b.Baseline(opts, "exhaustion")
	if err != nil || base.Finding != nil || base.WaitContract {
		return base.Finding, err
	}
	for _, cand := range enumerate(base.Res, b.cs, opts) {
		if err := interrupted(ctx, opts.Deadline, "hunt"); err != nil {
			return nil, err
		}
		out := b.runOnce(cand.make(), base.MaxSteps)
		if out.Class == ClassNone {
			continue
		}
		return b.Confirm(cand.label, out.Points, out.Class, base.MaxSteps)
	}
	return nil, nil
}

// Gate is a case's exhaustion baseline judged by the rules the hunt,
// the model checker and the power sweep share.
type Gate struct {
	Res      *emulator.Result // the baseline run
	MaxSteps int64            // step cap for every later run of the case
	Finding  *Finding         // non-nil when the baseline is a violation
	// WaitContract is set when a wait-style placement (AssumeAnytime
	// off) kept its contract: correct output, zero power failures.
	WaitContract bool
}

// Baseline runs the case once under plain exhaustion, ledgers
// reconciled: the placement must be correct under its own physics before
// injection means anything. A completed but wrong baseline (divergence,
// poison read, ledger mismatch) is a finding, labelled foundBy. Any other
// failure mirrors the paper's ✗ cells for anytime-contract techniques
// and returns a SkipError; a wait-style placement guarantees completion
// with zero power failures at any EB it accepted, so for it any failure,
// or any power failure at all, is the finding.
func (b *Built) Baseline(opts Options, foundBy string) (Gate, error) {
	out := b.runOnce(emulator.Exhaustion(), 0)
	wait := WaitOnly(b.mod) && !opts.AssumeAnytime
	g := Gate{Res: out.Res}
	finding := func(class Class, detail string) *Finding {
		return &Finding{Case: b.cs, Schedule: ScheduleSpec{Exhaust: true}, Class: class, Detail: detail, FoundBy: foundBy}
	}
	switch {
	case out.Class == ClassDivergence || out.Class == ClassPoisonRead || out.Class == ClassLedger,
		out.Class != ClassNone && wait:
		g.Finding = finding(out.Class, out.Detail)
	case out.Class != ClassNone:
		return g, &SkipError{Reason: fmt.Sprintf("baseline (exhaustion-only) run is %s: %s", out.Class, out.Detail)}
	case wait && out.Res.PowerFailures > 0:
		g.Finding = finding(ClassForwardProgress,
			fmt.Sprintf("wait-style placement hit %d unplanned power failures (segments exceed EB)", out.Res.PowerFailures))
	default:
		g.MaxSteps = stepCap(out.Res.Steps)
		g.WaitContract = wait
	}
	return g, nil
}

// Confirm replays a failure-point trace as one continuous schedule,
// shrinks it, and packages the Finding. want is the class the replay
// must show: the hunt requires the class its schedule found, since its
// trace only normalizes that schedule. The model checker passes
// ClassNone, which accepts any violation: its resumed legs start with
// fresh stagnation watchdogs, so a continuous replay of the same points
// may legitimately classify differently (e.g. surface as
// forward-progress earlier). A replay that shows another class, or no
// violation, is an error instead of a broken repro.
func (b *Built) Confirm(foundBy string, points []PointSpec, want Class, maxSteps int64) (*Finding, error) {
	spec := ScheduleSpec{Exhaust: true, Points: points}
	replayed, err := b.runSpec(spec, maxSteps)
	if err != nil {
		return nil, err
	}
	switch {
	case want != ClassNone && replayed.Class != want:
		return nil, fmt.Errorf("crashtest: case %s: %s found %s but its trace %s replays as %q",
			b.cs.Name, foundBy, want, spec, replayed.Class)
	case replayed.Class == ClassNone:
		return nil, fmt.Errorf("crashtest: case %s: %s counterexample %s does not reproduce (replays clean)",
			b.cs.Name, foundBy, spec)
	}
	budget := shrinkBudget
	spec.Points = shrinkPoints(b, spec.Points, replayed.Class, maxSteps, &budget)
	final, err := b.runSpec(spec, maxSteps)
	if err != nil {
		return nil, err
	}
	return &Finding{
		Case:     b.cs,
		Schedule: spec,
		Class:    final.Class,
		Detail:   final.Detail,
		FoundBy:  foundBy,
	}, nil
}

// shrinkPoints minimizes a failure-point list while preserving the
// violation class: binary-search halving first, then greedy single-point
// removal, each trial costing one re-execution against the budget.
func shrinkPoints(b *Built, points []PointSpec, class Class, maxSteps int64, budget *int) []PointSpec {
	same := func(trial []PointSpec) bool {
		if *budget <= 0 {
			return false
		}
		*budget--
		out, err := b.runSpec(ScheduleSpec{Exhaust: true, Points: trial}, maxSteps)
		return err == nil && out.Class == class
	}
	for len(points) > 1 {
		half := len(points) / 2
		switch {
		case same(points[:half]):
			points = points[:half]
		case same(points[half:]):
			points = points[half:]
		default:
			goto greedy
		}
	}
greedy:
	for i := len(points) - 1; i >= 0 && len(points) > 1; i-- {
		trial := make([]PointSpec, 0, len(points)-1)
		trial = append(trial, points[:i]...)
		trial = append(trial, points[i+1:]...)
		if same(trial) {
			points = trial
		}
	}
	return points
}

// ShrinkProgram minimizes a fuzz-generated counterexample's program: it
// regenerates the program from the same seed under progressively tighter
// generator options and keeps any reduction that still exhibits the same
// violation class (re-hunted with a reduced schedule set). Cases without
// fuzz provenance are returned unchanged. Cancelling the context stops
// further reduction attempts and returns the best finding so far.
func ShrinkProgram(ctx context.Context, f *Finding, opts Options) *Finding {
	if f.Case.Fuzz == nil {
		return f
	}
	opts = opts.withDefaults()
	quick := opts
	quick.SampledSteps = 12
	quick.RandomSchedules = 2
	quick.ExhaustiveStepLimit = 600
	best := f
	for pass := 0; pass < 8; pass++ {
		improved := false
		for _, next := range best.Case.Fuzz.Options.Reductions() {
			if ctx.Err() != nil {
				return best
			}
			prog := fuzzgen.FromSeed(best.Case.Fuzz.Seed, next)
			if len(prog.Source) >= len(best.Case.Source) {
				continue
			}
			cs := best.Case
			cs.Fuzz = &prog
			cs.Source = prog.Source
			got, err := Hunt(ctx, cs, quick)
			if err != nil || got == nil || got.Class != best.Class {
				continue
			}
			best = got
			improved = true
			break
		}
		if !improved {
			break
		}
	}
	return best
}

// FuzzCases derives a reproducible stream of fuzz-generated cases, one
// per (program, technique) pair. Every third program carries the
// placement-adversarial shapes (deep WAR chains, tiny hot loops).
func FuzzCases(baseSeed int64, n int, techniques []string, inputSeed int64) []Case {
	var out []Case
	for i, prog := range fuzzgen.MixedCorpus(baseSeed, n) {
		prog := prog
		for _, tech := range techniques {
			out = append(out, Case{
				Name:      fmt.Sprintf("fuzz-%d", i),
				Source:    prog.Source,
				Fuzz:      &prog,
				Technique: tech,
				InputSeed: inputSeed + int64(i),
			})
		}
	}
	return out
}
