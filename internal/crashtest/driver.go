package crashtest

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"schematic/internal/bench"
)

// Driver is the one case loop behind every crash-consistency sweep: the
// sampling hunt (Hunter.Run), the harvested power sweep (Hunter.Sweep)
// and the model checker's verify.Sweeper. It judges a case list on a
// worker pool (the internal/bench runner pattern). Its fields mean what
// Hunter's fields of the same names mean; a negative Jobs, CaseTimeout
// or Budget is refused (see Drive).
type Driver struct {
	Jobs        int
	CaseTimeout time.Duration
	Budget      time.Duration
	Log         io.Writer

	mu sync.Mutex // serializes writes to Log
}

// Status is the part of a case's result the driver decides.
type Status struct {
	Skipped string // non-empty when the case was skipped (with reason)
	Err     error  // infrastructure failure (compile, oracle, ...)
	Elapsed time.Duration
}

// Logf writes one line to Log, if set. It is safe for concurrent use,
// so a judge may log progress between the driver's per-case lines.
func (d *Driver) Logf(format string, args ...any) {
	if d.Log == nil {
		return
	}
	line := fmt.Sprintf(format+"\n", args...)
	d.mu.Lock()
	defer d.mu.Unlock()
	io.WriteString(d.Log, line) // a progress log: a failed write loses only the line
}

// Drive judges every case and returns the results in case order,
// whatever the worker count. judge gets the earliest of the caller's
// deadline, the case timeout, the budget and the context's deadline. A
// case is skipped unjudged once the context is cancelled or the budget
// has expired; a SkipError or context error from judge skips it too, and
// any other error is its Err. result combines the case, judge's verdict
// (zero unless judge succeeded) and its Status; its String is the case's
// log line. A driver field that fails validate is refused before any
// case runs: every case's Err is the ConfigError naming it.
func Drive[V any, R fmt.Stringer](ctx context.Context, d *Driver, cases []Case, deadline time.Time,
	judge func(ctx context.Context, cs Case, deadline time.Time) (V, error),
	result func(cs Case, v V, st Status) R) []R {
	if err := d.validate(); err != nil {
		results := make([]R, len(cases))
		for i, cs := range cases {
			var v V
			results[i] = result(cs, v, Status{Err: err})
			d.Logf("%s", results[i])
		}
		return results
	}
	var budget time.Time
	if d.Budget > 0 {
		budget = time.Now().Add(d.Budget)
	}
	ctxDeadline, _ := ctx.Deadline()
	results := make([]R, len(cases))
	// The pool itself is never cancelled, so the cases left after a
	// cancellation still get a (skipped) result.
	_ = bench.ParallelForCtx(context.Background(), d.Jobs, len(cases), func(i int) error {
		var v V
		var st Status
		start := time.Now()
		switch {
		case ctx.Err() != nil:
			st.Skipped = "cancelled"
		case !budget.IsZero() && start.After(budget):
			st.Skipped = "wall-clock budget exhausted"
		default:
			var timeout time.Time
			if d.CaseTimeout > 0 {
				timeout = start.Add(d.CaseTimeout)
			}
			got, err := judge(ctx, cases[i], earliest(deadline, ctxDeadline, budget, timeout))
			st.Elapsed = time.Since(start)
			switch {
			case err == nil:
				v = got
			case IsSkip(err):
				st.Skipped = err.Error()
			case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
				st.Skipped = "cancelled: " + err.Error()
			default:
				st.Err = err
			}
		}
		results[i] = result(cases[i], v, st)
		d.Logf("%s", results[i])
		return nil
	})
	return results
}

// validate refuses a negative worker count, case timeout or budget:
// the pool would quietly take NumCPU workers, and a negative bound would
// quietly bound nothing.
func (d *Driver) validate() error {
	for _, b := range []struct {
		field string
		v     time.Duration
	}{{"Driver.CaseTimeout", d.CaseTimeout}, {"Driver.Budget", d.Budget}} {
		if b.v < 0 {
			return &ConfigError{Field: b.field, Reason: fmt.Sprintf("must not be negative, got %v", b.v)}
		}
	}
	return NotNegative("Driver.Jobs", int64(d.Jobs))
}

// earliest returns the earliest non-zero time, or the zero time when
// every one is zero (no deadline).
func earliest(ts ...time.Time) time.Time {
	var e time.Time
	for _, t := range ts {
		if !t.IsZero() && (e.IsZero() || t.Before(e)) {
			e = t
		}
	}
	return e
}

// interrupted reports why a judge must stop before its next run: the
// context's error, or a SkipError once the deadline has passed.
func interrupted(ctx context.Context, deadline time.Time, mode string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if !deadline.IsZero() && time.Now().After(deadline) {
		return &SkipError{Reason: "deadline expired mid-" + mode}
	}
	return nil
}
