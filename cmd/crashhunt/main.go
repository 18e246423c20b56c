// Command crashhunt hunts crash-consistency violations in checkpoint
// placements by differential fault injection: every (program, technique)
// case is validated against its continuous-power oracle under adversarial
// power schedules — failures immediately before/mid/after checkpoint
// saves, at instruction boundaries, and at seeded-random points.
//
//	crashhunt                              # all bundled benchmarks × all techniques
//	crashhunt -benches crc,fft -techs Ratchet,Schematic
//	crashhunt -fuzz 16 -fuzz-seed 42       # add 16 fuzz-generated programs
//	crashhunt -sabotage 1 -techs Ratchet   # delete the 1st checkpoint (expect findings)
//	crashhunt -budget 60s -jobs 4 -o repro.ndjson
//	crashhunt -replay repro.ndjson         # re-execute serialized counterexamples
//
// -power switches from injection hunting to a harvested-environment
// sweep: every case passes the same exhaustion-baseline gate as the
// hunt, then runs once under each given power spec (shared grammar with
// iemu and schematicd; see "Power environments" in EXPERIMENTS.md),
// classified against its continuous-power oracle. The flag repeats, one
// environment per use; -jobs, -timeout and -budget apply as in the hunt,
// -o and -exhaustive are rejected:
//
//	crashhunt -power solar -power rf:seed=7 -power duty:duty=0.2
//	crashhunt -benches crc -power solar:cloud=0.9,cap=1800
//
// -exhaustive upgrades the sweep from sampling to bounded model
// checking (internal/verify): every reachable persistent state is
// explored, so a clean case comes back VERIFIED with full state/edge
// counts instead of merely unfalsified:
//
//	crashhunt -exhaustive -benches crc,randmath
//	crashhunt -exhaustive -benches crc -max-states 50000 -max-depth 32
//
// Exit status: 0 = no violations, 1 = confirmed violations (or, with
// -replay, a repro that no longer reproduces), 2 = infrastructure errors
// or a flag mistake. A negative -sabotage or -tbpf (each case's
// Case.Sabotage/Case.TBPF), -max-states or -max-depth (the verifier's
// Options), or -jobs, -timeout or -budget (the case driver's) is refused
// as a crashtest.ConfigError before any emulator run.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"schematic/internal/bench"
	"schematic/internal/cli"
	"schematic/internal/crashtest"
	"schematic/internal/ndjson"
	"schematic/internal/verify"
)

func main() {
	var (
		replay   = flag.String("replay", "", "replay a findings NDJSON file instead of hunting")
		benches  = flag.String("benches", "all", "comma-separated benchmark names, or 'all', or 'none'")
		techs    = flag.String("techs", "all", "comma-separated technique names, or 'all'")
		fuzzN    = flag.Int("fuzz", 0, "also hunt this many fuzz-generated programs")
		fuzzSeed = flag.Int64("fuzz-seed", 1, "base seed for the fuzz-generated corpus")
		seed     = flag.Int64("seed", 1, "workload input seed")
		tbpf     = flag.Int64("tbpf", 0, "target time between power failures in cycles (0 = 10000)")
		sabotage = flag.Int("sabotage", 0, "delete the Nth checkpoint (1-based) from every placement before hunting")
		jobs     = flag.Int("jobs", 0, "worker pool size (0 = NumCPU)")
		timeout  = flag.Duration("timeout", 2*time.Minute, "per-case hunt timeout (0 = none)")
		budget   = flag.Duration("budget", 0, "overall wall-clock budget; cases beyond it are skipped (0 = none)")
		out      = flag.String("o", "", "write confirmed findings as NDJSON repros to this file")
		verbose  = flag.Bool("v", false, "log one line per case")
		anytime  = flag.Bool("anytime", false, "inject into wait-style placements too, ignoring their failures-only-at-checkpoints contract")

		exhaustive = flag.Bool("exhaustive", false, "bounded model checking instead of sampling: explore every reachable persistent state")
		maxStates  = flag.Int("max-states", 0, "with -exhaustive: bound on distinct persistent states (0 = 200000)")
		maxDepth   = flag.Int("max-depth", 0, "with -exhaustive: bound on chained injections (0 = 64)")
	)
	var powers []string
	flag.Func("power", "power-environment spec (repeatable): sweep cases under this schedule instead of injection hunting (e.g. solar, rf:seed=7)", func(s string) error {
		powers = append(powers, s)
		return nil
	})
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: crashhunt [flags]")
		flag.Usage()
		os.Exit(2)
	}

	if len(powers) > 0 && (*out != "" || *exhaustive) {
		fmt.Fprintln(os.Stderr, "crashhunt: -power takes neither -o (harvested violations have no repro format) nor -exhaustive")
		os.Exit(2)
	}

	if *replay != "" {
		os.Exit(runReplay(*replay))
	}
	techList, err := parseTechs(*techs)
	fail(err)
	cases, err := buildCases(*benches, techList, *fuzzN, *fuzzSeed, *seed)
	fail(err)
	for i := range cases {
		cases[i].TBPF = *tbpf
		cases[i].Sabotage = *sabotage
	}
	if len(cases) == 0 {
		fmt.Fprintln(os.Stderr, "crashhunt: no cases selected")
		os.Exit(2)
	}

	// ^C / SIGTERM cancels the sweep: in-flight cases wind down and the
	// rest are reported as skipped.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	h := &crashtest.Hunter{
		Opts:        crashtest.Options{AssumeAnytime: *anytime},
		Jobs:        *jobs,
		CaseTimeout: *timeout,
		Budget:      *budget,
	}
	if *verbose {
		h.Log = os.Stderr
	}
	if *exhaustive {
		vopts := verify.Options{MaxStates: *maxStates, MaxDepth: *maxDepth, AssumeAnytime: *anytime}
		os.Exit(runExhaustive(ctx, h, cases, vopts, *out, *verbose))
	}
	if len(powers) > 0 {
		os.Exit(runPowerSweep(ctx, h, cases, powers, *verbose))
	}

	start := time.Now()
	results := h.Run(ctx, cases)
	summary := crashtest.Summarize(results)

	findings := crashtest.Findings(results)
	// Fuzz-generated counterexamples also get their program shrunk.
	for i := range findings {
		if findings[i].Case.Fuzz != nil {
			findings[i] = *crashtest.ShrinkProgram(ctx, &findings[i], h.Opts)
		}
	}

	for i := range results {
		r := &results[i]
		if r.Err != nil {
			fmt.Fprintf(os.Stderr, "crashhunt: ERROR %s/%s: %v\n", r.Case.Name, r.Case.Technique, r.Err)
		}
	}
	for i := range findings {
		f := &findings[i]
		fmt.Printf("VIOLATION %s/%s: %s via %s (found by %s)\n",
			f.Case.Name, f.Case.Technique, f.Class, f.Schedule, f.FoundBy)
		if f.Detail != "" {
			fmt.Printf("  %s\n", f.Detail)
		}
	}
	fmt.Printf("crashhunt: %s in %v\n", summary, time.Since(start).Round(time.Millisecond))

	if *out != "" && len(findings) > 0 {
		fail(cli.WriteTo(*out, func(w io.Writer) error { return ndjson.Write(w, findings) }))
		fmt.Printf("crashhunt: wrote %d repro(s) to %s\n", len(findings), *out)
	}

	switch {
	case summary.Errors > 0:
		os.Exit(2)
	case summary.Violations > 0:
		os.Exit(1)
	}
}

// runPowerSweep validates every case against its oracle under each
// harvested power environment — the physics analogue of the injection
// hunt, on the hunter's worker pool, timeouts and budget.
func runPowerSweep(ctx context.Context, h *crashtest.Hunter, cases []crashtest.Case, specs []string, verbose bool) int {
	var scheds []crashtest.NamedSchedule
	for _, raw := range specs {
		ps, err := cli.ParsePower(raw)
		fail(err)
		if ps.Empty() {
			fail(fmt.Errorf("empty -power spec"))
		}
		scheds = append(scheds, crashtest.NamedSchedule{Name: ps.String(), Make: ps.Build})
	}
	start := time.Now()
	results := h.Sweep(ctx, cases, scheds)
	cells, violations, skipped, errs := 0, 0, 0, 0
	for i := range results {
		r := &results[i]
		switch {
		case r.Err != nil:
			errs++
			fmt.Fprintf(os.Stderr, "crashhunt: ERROR %s/%s: %v\n", r.Case.Name, r.Case.Technique, r.Err)
		case r.Skipped != "":
			skipped++
		}
		for _, c := range r.Cells {
			cells++
			if c.Violation() {
				violations++
				fmt.Printf("VIOLATION %s/%s under %s: %s\n", c.Case.Name, c.Case.Technique, c.Schedule, c.Outcome.Class)
				if c.Outcome.Detail != "" {
					fmt.Printf("  %s\n", c.Outcome.Detail)
				}
			} else if verbose {
				fmt.Printf("ok        %s/%s under %s (%d power failures)\n",
					c.Case.Name, c.Case.Technique, c.Schedule, c.Outcome.Res.PowerFailures)
			}
		}
	}
	fmt.Printf("crashhunt: power sweep: %d cells across %d environment(s), %d violation(s); %d of %d cases skipped, %d errors in %v\n",
		cells, len(scheds), violations, skipped, len(results), errs, time.Since(start).Round(time.Millisecond))
	switch {
	case errs > 0:
		return 2
	case violations > 0:
		return 1
	}
	return 0
}

// runExhaustive sweeps the cases through the bounded model checker, on
// the hunter's worker pool, timeouts and budget, and reports VERIFIED /
// BOUNDED / VIOLATION per case with full state-space statistics.
func runExhaustive(ctx context.Context, h *crashtest.Hunter, cases []crashtest.Case, opts verify.Options, outPath string, verbose bool) int {
	s := &verify.Sweeper{Opts: opts, Jobs: h.Jobs, CaseTimeout: h.CaseTimeout, Budget: h.Budget, Log: h.Log}
	start := time.Now()
	results := s.Run(ctx, cases)
	summary := verify.Summarize(results)

	for i := range results {
		r := &results[i]
		id := fmt.Sprintf("%s/%s", r.Case.Name, r.Case.Technique)
		switch {
		case r.Err != nil:
			fmt.Fprintf(os.Stderr, "crashhunt: ERROR %s: %v\n", id, r.Err)
		case r.Skipped != "":
			if verbose {
				fmt.Printf("SKIPPED   %s: %s\n", id, r.Skipped)
			}
		case r.Report.Verdict == verify.Counterexample:
			f := r.Report.Finding
			fmt.Printf("VIOLATION %s: %s via %s (found by %s, %d states / %d edges explored)\n",
				id, f.Class, f.Schedule, f.FoundBy, r.Report.States, r.Report.Edges)
			if f.Detail != "" {
				fmt.Printf("  %s\n", f.Detail)
			}
		case r.Report.Verdict == verify.Bounded:
			fmt.Printf("BOUNDED   %s: no violation within %s bound (%d states, %d edges, depth %d)\n",
				id, r.Report.Bound, r.Report.States, r.Report.Edges, r.Report.MaxDepth)
		case r.Report.WaitContract:
			fmt.Printf("VERIFIED  %s: wait contract holds (completes correctly, zero failures)\n", id)
		default:
			fmt.Printf("VERIFIED  %s: %d states, %d edges, %.1f%% dedup, depth %d in %v\n",
				id, r.Report.States, r.Report.Edges,
				100*float64(r.Report.DedupHits)/float64(max64(r.Report.Edges, 1)),
				r.Report.MaxDepth, r.Elapsed.Round(time.Millisecond))
		}
	}
	fmt.Printf("crashhunt: %s in %v\n", summary, time.Since(start).Round(time.Millisecond))

	findings := verify.Findings(results)
	if outPath != "" && len(findings) > 0 {
		fail(cli.WriteTo(outPath, func(w io.Writer) error { return ndjson.Write(w, findings) }))
		fmt.Printf("crashhunt: wrote %d repro(s) to %s\n", len(findings), outPath)
	}

	switch {
	case summary.Errors > 0:
		return 2
	case summary.Counterexamples > 0:
		return 1
	}
	return 0
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// runReplay re-executes every serialized counterexample and checks it
// still reproduces its recorded violation class.
func runReplay(path string) int {
	f, err := os.Open(path)
	fail(err)
	findings, err := ndjson.Read[crashtest.Finding](f)
	f.Close()
	fail(err)
	if len(findings) == 0 {
		fmt.Fprintln(os.Stderr, "crashhunt: no findings in", path)
		return 2
	}
	mismatches, errors := 0, 0
	for i := range findings {
		fd := &findings[i]
		out, err := crashtest.Replay(*fd)
		id := fmt.Sprintf("%s/%s", fd.Case.Name, fd.Case.Technique)
		switch {
		case err != nil:
			errors++
			fmt.Printf("ERROR      %s: %v\n", id, err)
		case out.Class != fd.Class:
			mismatches++
			fmt.Printf("MISMATCH   %s: recorded %s, replayed %q\n", id, fd.Class, out.Class)
		default:
			fmt.Printf("reproduced %s: %s via %s\n", id, fd.Class, fd.Schedule)
		}
	}
	switch {
	case errors > 0:
		return 2
	case mismatches > 0:
		return 1
	}
	return 0
}

// buildCases assembles the hunt list from the benchmark and fuzz selections.
func buildCases(benchSpec string, techs []string, fuzzN int, fuzzSeed, inputSeed int64) ([]crashtest.Case, error) {
	names, err := cli.BenchNames(benchSpec)
	if err != nil {
		return nil, err
	}
	cases, err := crashtest.BenchCases(names, techs, inputSeed)
	if err != nil {
		return nil, err
	}
	if fuzzN > 0 {
		cases = append(cases, crashtest.FuzzCases(fuzzSeed, fuzzN, techs, inputSeed)...)
	}
	return cases, nil
}

func parseTechs(spec string) ([]string, error) {
	if spec == "all" || spec == "" {
		return crashtest.TechniqueNames(), nil
	}
	names := cli.SplitList(spec)
	for i, n := range names {
		t, err := bench.TechniqueByName(n)
		if err != nil {
			return nil, err
		}
		names[i] = t.Name()
	}
	return names, nil
}

var fail = cli.Fail("crashhunt", 2)
