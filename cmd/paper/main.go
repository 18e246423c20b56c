// Command paper regenerates every table and figure of the paper's
// evaluation (Section IV) on the bundled MiBench2-style benchmark suite:
//
//	paper -all                # everything
//	paper -table 1            # Table I   (VM-size support matrix)
//	paper -table 2            # Table II  (execution time, minimal failures)
//	paper -table 3            # Table III (forward progress)
//	paper -figure 6           # Fig. 6    (energy breakdown, TBPF=10k)
//	paper -figure 7           # Fig. 7    (SCHEMATIC vs All-NVM)
//	paper -figure 8           # Fig. 8    (capacitor-size sweep on crc)
//	paper -headline           # §IV-D averages
//	paper -ablations          # design-choice ablation study (beyond paper)
//
// The experiment grid fans out across -jobs worker goroutines (default:
// all CPUs; -jobs 1 runs sequentially). Tables and figures go to stdout
// and are byte-identical regardless of -jobs; timings and the run-report
// summary go to stderr. -stats FILE dumps one NDJSON record per grid
// cell (wall/apply/emulate timings, steps, power failures, energy
// breakdown) for offline analysis.
//
// Absolute numbers come from this reproduction's energy model, not the
// authors' testbed; the shapes are the object of comparison (see
// EXPERIMENTS.md).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"schematic/internal/bench"
)

func main() {
	var (
		table       = flag.Int("table", 0, "regenerate Table 1, 2 or 3")
		figure      = flag.Int("figure", 0, "regenerate Figure 6, 7 or 8")
		headline    = flag.Bool("headline", false, "print the §IV-D headline averages")
		ablations   = flag.Bool("ablations", false, "run the design-choice ablation study")
		all         = flag.Bool("all", false, "regenerate everything")
		profileRuns = flag.Int("profile-runs", 50, "profiling executions per benchmark")
		vmSize      = flag.Int("vmsize", 2048, "SVM in bytes")
		seed        = flag.Int64("seed", 1, "input-generation seed")
		fig8Bench   = flag.String("fig8-bench", "crc", "benchmark for the Figure 8 sweep")
		jobs        = flag.Int("jobs", runtime.NumCPU(), "experiment-grid workers (1 = sequential)")
		statsOut    = flag.String("stats", "", "dump per-cell NDJSON records to this file")
	)
	flag.Parse()
	if *profileRuns < 0 {
		fmt.Fprintf(os.Stderr, "paper: -profile-runs must not be negative, got %d\n", *profileRuns)
		flag.Usage()
		os.Exit(2)
	}

	// ^C / SIGTERM cancels the in-flight experiment grid promptly instead
	// of letting it run to completion.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	h := bench.NewHarness()
	h.ProfileRuns = *profileRuns
	h.VMSize = *vmSize
	h.Seed = *seed
	h.Jobs = *jobs
	// -stats turns on per-site attribution: every cell's energy is
	// reconciled against the observer ledgers and the hottest checkpoint
	// sites are embedded in each NDJSON record.
	h.CollectSites = *statsOut != ""
	report := h.StartReport()

	if !*all && *table == 0 && *figure == 0 && !*headline && !*ablations {
		flag.Usage()
		os.Exit(2)
	}
	run := func(name string, f func() error) {
		start := time.Now()
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "paper: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "(%s regenerated in %v)\n", name, time.Since(start).Round(time.Millisecond))
	}

	if *all || *table == 1 {
		run("Table I", func() error {
			t1, err := h.Table1(ctx)
			if err != nil {
				return err
			}
			bench.RenderTable1(os.Stdout, t1)
			fmt.Println()
			return nil
		})
	}
	if *all || *table == 2 {
		run("Table II", func() error {
			rows, err := h.Table2(ctx)
			if err != nil {
				return err
			}
			bench.RenderTable2(os.Stdout, rows)
			fmt.Println()
			return nil
		})
	}
	if *all || *table == 3 {
		run("Table III", func() error {
			t3, err := h.Table3(ctx)
			if err != nil {
				return err
			}
			bench.RenderTable3(os.Stdout, t3)
			fmt.Println()
			return nil
		})
	}
	var fig6 map[string]map[string]*bench.TechRun
	if *all || *figure == 6 || *headline {
		run("Figure 6", func() error {
			var err error
			fig6, err = h.Figure6(ctx, bench.Fig6TBPF)
			if err != nil {
				return err
			}
			if *all || *figure == 6 {
				bench.RenderFigure6(os.Stdout, fig6, bench.Fig6TBPF)
				fmt.Println()
			}
			return nil
		})
	}
	if *all || *figure == 7 {
		run("Figure 7", func() error {
			fig7, err := h.Figure7(ctx, bench.Fig6TBPF)
			if err != nil {
				return err
			}
			bench.RenderFigure7(os.Stdout, fig7, bench.Fig6TBPF)
			fmt.Println()
			return nil
		})
	}
	if *all || *figure == 8 {
		run("Figure 8", func() error {
			fig8, err := h.Figure8(ctx, *fig8Bench)
			if err != nil {
				return err
			}
			bench.RenderFigure8(os.Stdout, fig8, *fig8Bench)
			fmt.Println()
			return nil
		})
	}
	if *all || *headline {
		run("Headline", func() error {
			bench.RenderHeadline(os.Stdout, bench.ComputeHeadline(fig6))
			fmt.Println()
			return nil
		})
	}
	if *all || *ablations {
		run("Ablations", func() error {
			abl, err := h.Ablations(ctx, bench.Fig6TBPF)
			if err != nil {
				return err
			}
			bench.RenderAblations(os.Stdout, abl, bench.Fig6TBPF)
			fmt.Println()
			return nil
		})
	}

	report.Summary(os.Stderr, h)
	if *statsOut != "" {
		f, err := os.Create(*statsOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "paper: -stats: %v\n", err)
			os.Exit(1)
		}
		if err := report.WriteNDJSON(f); err != nil {
			fmt.Fprintf(os.Stderr, "paper: -stats: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "paper: -stats: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %d cell records to %s\n", len(report.Records()), *statsOut)
	}
}
