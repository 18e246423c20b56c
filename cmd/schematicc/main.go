// Command schematicc is the compiler driver: it compiles a MiniC source
// file, optionally profiles it, applies a checkpoint-placement technique,
// and prints the transformed IR.
//
//	schematicc -budget 3000 prog.mc             # SCHEMATIC, EB in nJ
//	schematicc -tbpf 10000 prog.mc              # EB derived from a TBPF
//	schematicc -technique rockclimb prog.mc     # one of the baselines
//	schematicc -technique none prog.mc          # front end only
//	schematicc -O prog.mc                       # optimize before placement
//	schematicc -report prog.mc                  # static WCEC report
//	schematicc -stats -o out.ir prog.mc
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"schematic/internal/baselines"
	"schematic/internal/bench"
	"schematic/internal/cli"
	schematic "schematic/internal/core"
	"schematic/internal/energy"
	"schematic/internal/ir"
	"schematic/internal/minic"
	"schematic/internal/opt"
	"schematic/internal/trace"
	"schematic/internal/transval"
)

func main() {
	var (
		technique   = flag.String("technique", "schematic", "schematic | allnvm | ratchet | mementos | rockclimb | alfred | none")
		budget      = flag.Float64("budget", 0, "energy budget EB in nJ")
		tbpf        = flag.Int64("tbpf", 0, "derive EB from this time between power failures (cycles)")
		vmSize      = flag.Int("vmsize", 2048, "SVM in bytes")
		profileRuns = flag.Int("profile-runs", 50, "profiling executions (schematic/allnvm)")
		seed        = flag.Int64("seed", 1, "profiling input seed")
		out         = flag.String("o", "", "write the transformed IR to this file (default stdout)")
		dot         = flag.String("dot", "", "also write a Graphviz CFG of this function (e.g. -dot main=main.dot)")
		optimize    = flag.Bool("O", false, "run the optimizer before checkpoint placement")
		stats       = flag.Bool("stats", false, "print pass statistics to stderr")
		validate    = flag.Bool("validate", true, "validate the compilation: static checks (schematic only) plus translation validation of every pipeline stage")
		report      = flag.Bool("report", false, "print the static WCEC report to stderr (schematic only)")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: schematicc [flags] <prog.mc>")
		flag.Usage()
		os.Exit(2)
	}
	if *profileRuns < 0 {
		fmt.Fprintf(os.Stderr, "schematicc: -profile-runs must not be negative, got %d\n", *profileRuns)
		flag.Usage()
		os.Exit(2)
	}
	path := flag.Arg(0)
	src, err := os.ReadFile(path)
	fail(err)
	name := cli.ProgramName(path)
	m, err := minic.Compile(name, string(src))
	fail(err)
	if *optimize {
		ost, err := opt.Optimize(m)
		fail(err)
		if *stats {
			fmt.Fprintf(os.Stderr, "schematicc: optimizer: %v\n", ost)
		}
	}

	// "none" is the front end alone: nothing is placed, so nothing is
	// sized or profiled.
	var tech baselines.Technique
	if *technique != "none" {
		tech, err = bench.TechniqueByName(*technique)
		fail(err)
	}
	_, isSchematic := tech.(bench.Schematic)
	_, isAllNVM := tech.(bench.Variant) // the one Variant TechniqueByName returns
	model := energy.MSP430FR5969()
	var prof *trace.Profile
	if tech != nil && (isSchematic || isAllNVM || *tbpf > 0) {
		prof, err = trace.Collect(m, trace.Options{Runs: *profileRuns, Seed: *seed, Model: model})
		fail(err)
	}
	eb := *budget
	if prof != nil && *tbpf > 0 {
		eb = prof.EBForTBPF(*tbpf)
		fmt.Fprintf(os.Stderr, "schematicc: EB = %.1f nJ (TBPF = %d cycles)\n", eb, *tbpf)
	}

	switch {
	case tech == nil:
	case isSchematic:
		st, err := schematic.Apply(m, schematic.Config{
			Model: model, Budget: eb, VMSize: *vmSize, Profile: prof,
		})
		fail(err)
		if *stats {
			fmt.Fprintf(os.Stderr, "schematicc: %d checkpoints (%d conditional), %d paths, %d VM vars, analysis %v\n",
				st.Checkpoints, st.CondCheckpoints, st.PathsAnalyzed, st.VMVars, st.AnalysisTime)
		}
		if *validate {
			fail(schematic.Validate(m, schematic.Config{
				Model: model, Budget: eb, VMSize: *vmSize, Profile: prof,
			}))
			fmt.Fprintln(os.Stderr, "schematicc: static validation passed (budget safety, coherence, atomicity)")
		}
		if *report {
			rep, err := schematic.Report(m, schematic.Config{
				Model: model, Budget: eb, VMSize: *vmSize, Profile: prof,
			})
			fail(err)
			rep.Render(os.Stderr)
		}
	default:
		fail(tech.Apply(m, baselines.Params{
			Model: model, Budget: eb, VMSize: *vmSize, Profile: prof,
		}))
	}

	if *validate {
		runTransval(name, string(src), tech, *tbpf, *vmSize, *seed, *stats)
	}

	if *dot != "" {
		name, path, ok := strings.Cut(*dot, "=")
		if !ok {
			fail(fmt.Errorf("-dot wants <func>=<file>, got %q", *dot))
		}
		fn := m.FuncByName(name)
		if fn == nil {
			fail(fmt.Errorf("-dot: no function %q", name))
		}
		df, err := os.Create(path)
		fail(err)
		fail(ir.WriteDot(df, fn))
		fail(df.Close())
	}

	text := m.String()
	if *out == "" {
		fmt.Print(text)
		return
	}
	fail(os.WriteFile(*out, []byte(text), 0o644))
}

// runTransval differentially validates the whole pipeline for this
// program: the AST reference interpreter against the emulator after
// lowering, after each optimizer pass, and after the selected placement
// technique (none when tech is nil). Independent of the compilation
// above — it recompiles from source — so a divergence here indicts the
// pipeline, not this driver.
func runTransval(name, src string, tech baselines.Technique, tbpf int64, vmSize int, seed int64, stats bool) {
	opts := transval.Options{
		TBPF:     tbpf,
		VMSize:   vmSize,
		Coverage: transval.NewCoverage(),
	}
	if tech != nil {
		opts.Techniques = []string{tech.Name()}
	} else {
		opts.SkipPlacement = true
	}
	f, err := transval.Validate(transval.Case{Name: name, Source: src, InputSeed: seed}, opts)
	if _, skip := err.(*transval.SkipError); skip {
		fmt.Fprintf(os.Stderr, "schematicc: translation validation skipped: %v\n", err)
		return
	}
	fail(err)
	if f != nil {
		fail(fmt.Errorf("translation validation failed at stage %s: want %s, got %s", f.Stage, f.Want, f.Got))
	}
	scope := "lowering + optimizer"
	if !opts.SkipPlacement {
		scope += " + " + opts.Techniques[0] + " placement"
	}
	fmt.Fprintf(os.Stderr, "schematicc: translation validation passed (%s vs the AST interpreter)\n", scope)
	if stats {
		opts.Coverage.WriteReport(os.Stderr)
	}
}

var fail = cli.Fail("schematicc", 1)
