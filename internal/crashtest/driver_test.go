package crashtest_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"sort"
	"strings"
	"testing"
	"time"

	"schematic/internal/crashtest"
	"schematic/internal/emulator"
	"schematic/internal/harvest"
	"schematic/internal/verify"
)

// driven is the part of a sweep result the case driver decides.
type driven struct {
	cs      crashtest.Case
	skipped string
	err     error
}

// sweepConfig is the driver configuration every mode exposes.
type sweepConfig struct {
	jobs    int
	timeout time.Duration
	budget  time.Duration
	log     io.Writer
}

// modes are the driver's three callers, each reduced to what the driver
// decides: the sampling hunt, the model checker and the power sweep.
var modes = []struct {
	name string
	run  func(ctx context.Context, c sweepConfig, cases []crashtest.Case) []driven
}{
	{"Hunter", func(ctx context.Context, c sweepConfig, cases []crashtest.Case) []driven {
		h := &crashtest.Hunter{Opts: quickOpts, Jobs: c.jobs, CaseTimeout: c.timeout, Budget: c.budget, Log: c.log}
		var out []driven
		for _, r := range h.Run(ctx, cases) {
			out = append(out, driven{r.Case, r.Skipped, r.Err})
		}
		return out
	}},
	{"Sweeper", func(ctx context.Context, c sweepConfig, cases []crashtest.Case) []driven {
		s := &verify.Sweeper{Jobs: c.jobs, CaseTimeout: c.timeout, Budget: c.budget, Log: c.log}
		var out []driven
		for _, r := range s.Run(ctx, cases) {
			out = append(out, driven{r.Case, r.Skipped, r.Err})
		}
		return out
	}},
	{"PowerSweep", func(ctx context.Context, c sweepConfig, cases []crashtest.Case) []driven {
		h := &crashtest.Hunter{Jobs: c.jobs, CaseTimeout: c.timeout, Budget: c.budget, Log: c.log}
		solar := crashtest.NamedSchedule{Name: "solar", Make: func(eb float64) (emulator.PowerSchedule, error) {
			return harvest.Capacitor{Env: harvest.Solar{}, Capacity: eb}.Schedule(), nil
		}}
		var out []driven
		for _, r := range h.Sweep(ctx, cases, []crashtest.NamedSchedule{solar}) {
			out = append(out, driven{r.Case, r.Skipped, r.Err})
		}
		return out
	}},
}

// quickOpts keeps hunts cheap without changing their structure.
var quickOpts = crashtest.Options{ExhaustiveStepLimit: 400, SampledSteps: 10, SampledSaves: 3, RandomSchedules: 2}

// checkLog requires exactly one case line per case in the log, progress
// lines ("...") aside.
func checkLog(t *testing.T, log string, cases []crashtest.Case) {
	t.Helper()
	var got, want []string
	for _, line := range strings.Split(strings.TrimSpace(log), "\n") {
		if f := strings.Fields(line); len(f) > 1 && f[0] != "..." {
			got = append(got, f[1])
		}
	}
	for _, cs := range cases {
		want = append(want, cs.Name+"/"+cs.Technique)
	}
	sort.Strings(got)
	sort.Strings(want)
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("log names cases %v, want one line each for %v\nlog:\n%s", got, want, log)
	}
}

// TestHunterBudgetAndOrder: every mode returns its results in case order
// on a 4-worker pool, logs one line per case, and skips every case once
// its wall-clock budget has expired.
func TestHunterBudgetAndOrder(t *testing.T) {
	cases, err := crashtest.BenchCases([]string{"randmath"}, crashtest.TechniqueNames(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			var log bytes.Buffer
			results := m.run(context.Background(), sweepConfig{jobs: 4, log: &log}, cases)
			if len(results) != len(cases) {
				t.Fatalf("results = %d, want %d", len(results), len(cases))
			}
			for i, r := range results {
				if r.cs.Technique != cases[i].Technique {
					t.Fatalf("result %d out of order: %s", i, r.cs.Technique)
				}
				if r.err != nil {
					t.Errorf("%s: %v", r.cs.Technique, r.err)
				}
			}
			checkLog(t, log.String(), cases)

			// An already-expired budget skips every case.
			log.Reset()
			for _, r := range m.run(context.Background(), sweepConfig{budget: time.Nanosecond, log: &log}, cases) {
				if r.skipped != "wall-clock budget exhausted" {
					t.Errorf("expired budget: %s: skipped = %q, err = %v", r.cs.Technique, r.skipped, r.err)
				}
			}
			checkLog(t, log.String(), cases)
		})
	}
}

// TestHunterCancellation: a cancelled context makes every mode return
// promptly with every case marked cancelled instead of judging on.
func TestHunterCancellation(t *testing.T) {
	cases, err := crashtest.BenchCases(crashtest.BenchNames(), crashtest.TechniqueNames(), 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			var log bytes.Buffer
			start := time.Now()
			results := m.run(ctx, sweepConfig{log: &log}, cases)
			if el := time.Since(start); el > 5*time.Second {
				t.Fatalf("cancelled sweep took %v, want prompt return", el)
			}
			if len(results) != len(cases) {
				t.Fatalf("results = %d, want %d", len(results), len(cases))
			}
			for i, r := range results {
				if r.cs.Name != cases[i].Name || r.skipped != "cancelled" {
					t.Fatalf("result %d: %s/%s skipped = %q, want %s cancelled",
						i, r.cs.Name, r.cs.Technique, r.skipped, cases[i].Name)
				}
			}
			checkLog(t, log.String(), cases)
		})
	}
}

// TestDriverRefusesNegativeBounds: every mode refuses a negative worker
// count, case timeout or budget before any case runs — each case's Err
// is a ConfigError naming the field — instead of taking NumCPU workers
// or running unbounded. The cases have no source, so judging one would
// fail with another error.
func TestDriverRefusesNegativeBounds(t *testing.T) {
	cases := []crashtest.Case{{Name: "a", Technique: "Ratchet"}, {Name: "b", Technique: "Alfred"}}
	for _, m := range modes {
		for _, tc := range []struct {
			field string
			c     sweepConfig
		}{
			{"Driver.Jobs", sweepConfig{jobs: -1}},
			{"Driver.CaseTimeout", sweepConfig{timeout: -time.Second}},
			{"Driver.Budget", sweepConfig{budget: -time.Second}},
		} {
			t.Run(m.name+"/"+tc.field, func(t *testing.T) {
				var log bytes.Buffer
				tc.c.log = &log
				results := m.run(context.Background(), tc.c, cases)
				if len(results) != len(cases) {
					t.Fatalf("results = %d, want %d", len(results), len(cases))
				}
				for i, r := range results {
					var ce *crashtest.ConfigError
					if r.cs.Name != cases[i].Name || !errors.As(r.err, &ce) || ce.Field != tc.field {
						t.Errorf("case %s: skipped %q, err %v; want a ConfigError naming %s", r.cs.Name, r.skipped, r.err, tc.field)
					}
				}
				checkLog(t, log.String(), cases)
			})
		}
	}
}
