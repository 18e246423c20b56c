// Command transval runs translation validation over a program corpus:
// every case is executed by the AST reference interpreter and by the
// continuous-power emulator after lowering, after each individual
// optimizer pass, and after each checkpoint-placement technique, and any
// observable divergence is bisected to the first offending stage, shrunk,
// and serialized as a replayable NDJSON repro.
//
//	transval                                # all bundled benchmarks
//	transval -fuzz 200 -fuzz-seed 1         # add 200 fuzz-generated programs
//	transval -techs Ratchet,Schematic -benches crc,fft
//	transval -skip-placement -fuzz 50       # lowering + optimizer only
//	transval -o repro.ndjson                # serialize counterexamples
//	transval -replay repro.ndjson           # re-execute serialized repros
//
// Exit status: 0 = the whole corpus validates, 1 = mismatches found (or,
// with -replay, a repro that no longer reproduces), 2 = infrastructure
// errors or a flag mistake: a negative -tbpf is refused
// (transval.Options.Validate) before any run.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"schematic/internal/bench"
	"schematic/internal/cli"
	"schematic/internal/ndjson"
	"schematic/internal/transval"
)

func main() {
	var (
		replay   = flag.String("replay", "", "replay a findings NDJSON file instead of validating")
		benches  = flag.String("benches", "all", "comma-separated benchmark names, or 'all', or 'none'")
		fuzzN    = flag.Int("fuzz", 0, "also validate this many fuzz-generated programs")
		fuzzSeed = flag.Int64("fuzz-seed", 1, "base seed for the fuzz-generated corpus")
		seed     = flag.Int64("seed", 1, "workload input seed")
		tbpf     = flag.Int64("tbpf", 0, "time between power failures deriving the placement budget (0 = 10000)")
		probes   = flag.Bool("probes", true, "include the directed probe cases that cover fuzzgen's blind spots")
		techs    = flag.String("techs", "all", "comma-separated technique names, or 'all'")
		skip     = flag.Bool("skip-placement", false, "validate only lowering and the optimizer")
		out      = flag.String("o", "", "write findings as NDJSON repros to this file")
		report   = flag.Bool("coverage", true, "print the coverage report to stderr")
		verbose  = flag.Bool("v", false, "log one line per validated case")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: transval [flags]")
		flag.Usage()
		os.Exit(2)
	}

	opts := transval.Options{
		TBPF:          *tbpf,
		SkipPlacement: *skip,
		Coverage:      transval.NewCoverage(),
	}
	if *techs != "all" && *techs != "" {
		opts.Techniques = cli.SplitList(*techs)
	}
	fail(opts.Validate())

	if *replay != "" {
		os.Exit(runReplay(*replay, opts))
	}

	cases, err := buildCases(*benches, *fuzzN, *fuzzSeed, *seed)
	fail(err)
	if *probes {
		cases = append(cases, transval.ProbeCases(*seed)...)
	}
	if len(cases) == 0 {
		fmt.Fprintln(os.Stderr, "transval: no cases selected")
		os.Exit(2)
	}

	var findings []transval.Finding
	validated, skipped := 0, 0
	for _, cs := range cases {
		f, err := transval.Validate(cs, opts)
		switch {
		case err != nil:
			if _, ok := err.(*transval.SkipError); ok {
				skipped++
				if *verbose {
					fmt.Fprintf(os.Stderr, "transval: skip %s: %v\n", cs.Name, err)
				}
				continue
			}
			fail(err)
		case f != nil:
			findings = append(findings, *f)
			fmt.Printf("MISMATCH %s at %s: want %s, got %s\n", f.Case.Name, f.Stage, f.Want, f.Got)
		default:
			validated++
			if *verbose {
				fmt.Fprintf(os.Stderr, "transval: ok %s\n", cs.Name)
			}
		}
	}

	fmt.Printf("transval: %d validated, %d mismatches, %d skipped (of %d cases)\n",
		validated, len(findings), skipped, len(cases))
	if *report {
		opts.Coverage.WriteReport(os.Stderr)
	}

	if *out != "" && len(findings) > 0 {
		fail(cli.WriteTo(*out, func(w io.Writer) error { return ndjson.Write(w, findings) }))
		fmt.Printf("transval: wrote %d repro(s) to %s\n", len(findings), *out)
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}

// runReplay re-executes every serialized counterexample and checks it
// still diverges at its recorded stage.
func runReplay(path string, opts transval.Options) int {
	f, err := os.Open(path)
	fail(err)
	findings, err := ndjson.Read[transval.Finding](f)
	f.Close()
	fail(err)
	if len(findings) == 0 {
		fmt.Fprintln(os.Stderr, "transval: no findings in", path)
		return 2
	}
	mismatches := 0
	for i := range findings {
		fd := &findings[i]
		got, err := transval.Replay(*fd, opts)
		switch {
		case err != nil:
			mismatches++
			fmt.Printf("MISMATCH   %s: %v\n", fd.Case.Name, err)
		default:
			fmt.Printf("reproduced %s: %s diverges (want %s, got %s)\n", fd.Case.Name, got.Stage, got.Want, got.Got)
		}
	}
	if mismatches > 0 {
		return 1
	}
	return 0
}

// buildCases assembles the validation list from the benchmark and fuzz
// selections.
func buildCases(benchSpec string, fuzzN int, fuzzSeed, inputSeed int64) ([]transval.Case, error) {
	var cases []transval.Case
	names, err := cli.BenchNames(benchSpec)
	if err != nil {
		return nil, err
	}
	for _, n := range names {
		b, err := bench.ByName(n)
		if err != nil {
			return nil, err
		}
		cases = append(cases, transval.Case{Name: b.Name, Source: b.Source, InputSeed: inputSeed})
	}
	if fuzzN > 0 {
		cases = append(cases, transval.FuzzCases(fuzzSeed, fuzzN, inputSeed+1000)...)
	}
	return cases, nil
}

var fail = cli.Fail("transval", 2)
