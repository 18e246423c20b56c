package crashtest

import (
	"context"
	"fmt"
	"io"
	"time"

	"schematic/internal/bench"
)

// HuntResult is one case's outcome in a hunter sweep.
type HuntResult struct {
	Case    Case
	Finding *Finding // nil when the case passed
	Skipped string   // non-empty when the case was skipped (with reason)
	Err     error    // infrastructure failure (compile, oracle, ...)
	Elapsed time.Duration
}

// Hunter sweeps a case list on the case driver (see Driver), with
// per-case deadlines and an overall wall-clock budget.
type Hunter struct {
	Opts Options
	// Jobs is the worker count; 0 selects NumCPU.
	Jobs int
	// CaseTimeout bounds each case's hunt; 0 = no per-case bound.
	CaseTimeout time.Duration
	// Budget bounds the whole sweep; cases that would start after it
	// expires are skipped. 0 = no budget.
	Budget time.Duration
	// Log, when non-nil, receives one progress line per case.
	Log io.Writer
}

func (h *Hunter) driver() *Driver {
	return &Driver{Jobs: h.Jobs, CaseTimeout: h.CaseTimeout, Budget: h.Budget, Log: h.Log}
}

// Run hunts every case and returns the results in case order,
// deterministic regardless of the worker count. Each hunt's deadline is
// the earliest of Opts.Deadline, the case timeout, the budget and the
// context's deadline. A cancelled context marks every not-yet-hunted
// case as skipped and returns promptly; in-flight cases surface
// ctx.Err() through their result.
func (h *Hunter) Run(ctx context.Context, cases []Case) []HuntResult {
	judge := func(ctx context.Context, cs Case, deadline time.Time) (*Finding, error) {
		opts := h.Opts
		opts.Deadline = deadline
		return Hunt(ctx, cs, opts)
	}
	return Drive(ctx, h.driver(), cases, h.Opts.Deadline, judge, func(cs Case, f *Finding, st Status) HuntResult {
		return HuntResult{Case: cs, Finding: f, Skipped: st.Skipped, Err: st.Err, Elapsed: st.Elapsed}
	})
}

// String is the case's progress line.
func (r HuntResult) String() string {
	id := fmt.Sprintf("%s/%s", r.Case.Name, r.Case.Technique)
	switch {
	case r.Err != nil:
		return fmt.Sprintf("ERROR %-28s %v", id, r.Err)
	case r.Skipped != "":
		return fmt.Sprintf("skip  %-28s %s", id, r.Skipped)
	case r.Finding != nil:
		return fmt.Sprintf("FAIL  %-28s %s via %s (%s) in %v",
			id, r.Finding.Class, r.Finding.Schedule, r.Finding.FoundBy, r.Elapsed.Round(time.Millisecond))
	default:
		return fmt.Sprintf("ok    %-28s in %v", id, r.Elapsed.Round(time.Millisecond))
	}
}

// Summary aggregates a sweep.
type Summary struct {
	Cases      int
	Passed     int
	Violations int
	Skipped    int
	Errors     int
}

// Summarize folds hunt results into counts.
func Summarize(results []HuntResult) Summary {
	s := Summary{Cases: len(results)}
	for i := range results {
		switch {
		case results[i].Err != nil:
			s.Errors++
		case results[i].Skipped != "":
			s.Skipped++
		case results[i].Finding != nil:
			s.Violations++
		default:
			s.Passed++
		}
	}
	return s
}

func (s Summary) String() string {
	return fmt.Sprintf("%d cases: %d ok, %d violations, %d skipped, %d errors",
		s.Cases, s.Passed, s.Violations, s.Skipped, s.Errors)
}

// Findings extracts the non-nil findings in case order.
func Findings(results []HuntResult) []Finding {
	var out []Finding
	for i := range results {
		if results[i].Finding != nil {
			out = append(out, *results[i].Finding)
		}
	}
	return out
}

// BenchCases builds the hunt list for the bundled MiBench2 suite: one
// case per (benchmark, technique) pair.
func BenchCases(benches []string, techniques []string, inputSeed int64) ([]Case, error) {
	var out []Case
	for _, name := range benches {
		bm, err := bench.ByName(name)
		if err != nil {
			return nil, err
		}
		for _, tech := range techniques {
			out = append(out, Case{
				Name:      bm.Name,
				Source:    bm.Source,
				Technique: tech,
				InputSeed: inputSeed,
			})
		}
	}
	return out, nil
}

// BenchNames lists the bundled MiBench2 benchmarks in suite order.
func BenchNames() []string {
	return append([]string(nil), bench.Order...)
}

// TechniqueNames lists the five techniques in the paper's column order.
func TechniqueNames() []string {
	var names []string
	for _, t := range bench.Techniques() {
		names = append(names, t.Name())
	}
	return names
}
