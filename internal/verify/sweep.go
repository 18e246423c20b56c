package verify

import (
	"context"
	"fmt"
	"io"
	"time"

	"schematic/internal/crashtest"
)

// SweepResult is one case's outcome in a verification sweep.
type SweepResult struct {
	Case    crashtest.Case
	Report  *Report // nil when the case was skipped or errored
	Skipped string  // non-empty when the case was skipped (with reason)
	Err     error   // infrastructure failure (compile, oracle, ...)
	Elapsed time.Duration
}

// Sweeper verifies a case list on the crashtest case driver, as
// crashtest.Hunter hunts one: per-case deadlines, an overall wall-clock
// budget, and deterministic result order.
type Sweeper struct {
	Opts Options
	// Jobs is the worker count; 0 selects NumCPU.
	Jobs int
	// CaseTimeout bounds each case's search; expiry truncates that case
	// to a Bounded report rather than skipping it. 0 = no per-case bound.
	CaseTimeout time.Duration
	// Budget bounds the whole sweep; cases that would start after it
	// expires are skipped. 0 = no budget.
	Budget time.Duration
	// Log, when non-nil, receives one line per case, and — when
	// Opts.Progress is unset — periodic state-count/frontier/dedup
	// progress lines for long searches.
	Log io.Writer
}

// Run verifies every case and returns the results in case order. Each
// search's deadline is the earliest of Opts.Deadline, the case timeout,
// the budget and the context's deadline.
func (s *Sweeper) Run(ctx context.Context, cases []crashtest.Case) []SweepResult {
	d := &crashtest.Driver{Jobs: s.Jobs, CaseTimeout: s.CaseTimeout, Budget: s.Budget, Log: s.Log}
	judge := func(ctx context.Context, cs crashtest.Case, deadline time.Time) (*Report, error) {
		opts := s.Opts
		opts.Deadline = deadline
		// Run validates too, but only after the logging default below
		// would have replaced a negative ProgressEvery.
		if err := opts.Validate(); err != nil {
			return nil, err
		}
		if opts.Progress == nil && s.Log != nil {
			id := fmt.Sprintf("%s/%s", cs.Name, cs.Technique)
			opts.ProgressEvery = 5000
			opts.Progress = func(p Progress) {
				d.Logf("...   %-28s %d states (%d frontier, depth %d), %d edges, %.1f%% dedup, %d runs merged (%d steps skipped)",
					id, p.States, p.Frontier, p.Depth, p.Edges, dedupPct(p.Dedup, p.Edges), p.Merged, p.SkippedSteps)
			}
		}
		return Run(ctx, cs, opts)
	}
	return crashtest.Drive(ctx, d, cases, s.Opts.Deadline, judge, func(cs crashtest.Case, rep *Report, st crashtest.Status) SweepResult {
		return SweepResult{Case: cs, Report: rep, Skipped: st.Skipped, Err: st.Err, Elapsed: st.Elapsed}
	})
}

// String is the case's progress line.
func (r SweepResult) String() string {
	id := fmt.Sprintf("%s/%s", r.Case.Name, r.Case.Technique)
	el := r.Elapsed.Round(time.Millisecond)
	switch {
	case r.Err != nil:
		return fmt.Sprintf("ERROR %-28s %v", id, r.Err)
	case r.Skipped != "":
		return fmt.Sprintf("skip  %-28s %s", id, r.Skipped)
	case r.Report.Verdict == Counterexample:
		f := r.Report.Finding
		return fmt.Sprintf("FAIL  %-28s %s via %s after %d states in %v",
			id, f.Class, f.Schedule, r.Report.States, el)
	case r.Report.Verdict == Bounded:
		return fmt.Sprintf("bound %-28s %s at %d states / %d edges (depth %d) in %v",
			id, r.Report.Bound, r.Report.States, r.Report.Edges, r.Report.MaxDepth, el)
	case r.Report.WaitContract:
		return fmt.Sprintf("ok    %-28s verified (wait contract) in %v", id, el)
	default:
		return fmt.Sprintf("ok    %-28s verified: %d states, %d edges, %.1f%% dedup, depth %d in %v",
			id, r.Report.States, r.Report.Edges,
			dedupPct(r.Report.DedupHits, r.Report.Edges), r.Report.MaxDepth, el)
	}
}

func dedupPct(hits, edges int64) float64 {
	if edges == 0 {
		return 0
	}
	return 100 * float64(hits) / float64(edges)
}

// SweepSummary aggregates a verification sweep.
type SweepSummary struct {
	Cases           int
	Verified        int
	Bounded         int
	Counterexamples int
	Skipped         int
	Errors          int
}

// Summarize folds sweep results into counts.
func Summarize(results []SweepResult) SweepSummary {
	s := SweepSummary{Cases: len(results)}
	for i := range results {
		r := &results[i]
		switch {
		case r.Err != nil:
			s.Errors++
		case r.Skipped != "":
			s.Skipped++
		case r.Report.Verdict == Counterexample:
			s.Counterexamples++
		case r.Report.Verdict == Bounded:
			s.Bounded++
		default:
			s.Verified++
		}
	}
	return s
}

func (s SweepSummary) String() string {
	return fmt.Sprintf("%d cases: %d verified, %d counterexamples, %d bounded, %d skipped, %d errors",
		s.Cases, s.Verified, s.Counterexamples, s.Bounded, s.Skipped, s.Errors)
}

// Findings extracts the counterexample findings in case order.
func Findings(results []SweepResult) []crashtest.Finding {
	var out []crashtest.Finding
	for i := range results {
		if r := &results[i]; r.Report != nil && r.Report.Finding != nil {
			out = append(out, *r.Report.Finding)
		}
	}
	return out
}
