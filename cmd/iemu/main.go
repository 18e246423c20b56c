// Command iemu executes a program (MiniC source or textual IR) under the
// intermittent-computing emulator and reports the outcome and the energy
// ledger.
//
//	iemu prog.mc                       # continuous power
//	iemu -eb 3000 prog.ir              # intermittent, capacitor = 3000 nJ
//	iemu -eb 3000 -vmsize 2048 prog.ir
//	iemu -seed 7 prog.mc               # workload inputs from another seed
//
// Power environments (see "Power environments" in EXPERIMENTS.md):
//
//	iemu -eb 3000 -power solar prog.mc               # harvested solar diurnal profile
//	iemu -eb 3000 -power rf:seed=7,gap=90000 prog.mc # bursty RF
//	iemu -power duty:cap=2500 prog.mc                # capacitor sized by the spec
//	iemu -eb 3000 -power trace:run.ndjson prog.mc    # replay a recorded trace
//	iemu -eb 3000 -power solar -record run.ndjson prog.mc  # record this run
//
// Observability exports (see "Observing a run" in the README):
//
//	iemu -eb 3000 -timeline t.json prog.mc   # Chrome trace (Perfetto)
//	iemu -eb 3000 -folded f.txt prog.mc      # energy flamegraph stacks
//	iemu -eb 3000 -events e.ndjson prog.mc   # raw event stream
//	iemu -eb 3000 -sites prog.mc             # per-checkpoint-site table
//
// Fault injection (see "Hunting crash-consistency bugs" in the README):
//
//	iemu -eb 3000 -inject step@120 prog.mc            # fail at the 120th instruction
//	iemu -eb 3000 -inject mid-save@2,step@500 prog.mc # torn 2nd save, then a step failure
//
// The exit status is 0 only when the run completes; other verdicts
// (stuck, poisoned, budget exceeded) exit 1 so scripts can rely on it.
// Flag mistakes exit 2: a malformed or contradictory -power, -inject or
// -tbpf, a -power naming two power sources (solar+rf), or a -record
// that could not replay identically (a harvested run of a program with
// MEMENTOS trigger checkpoints).
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"

	"schematic/internal/cli"
	"schematic/internal/emulator"
	"schematic/internal/energy"
	"schematic/internal/harvest"
	"schematic/internal/ir"
	"schematic/internal/obs"
	"schematic/internal/trace"
)

func main() {
	var (
		eb       = flag.Float64("eb", 0, "capacitor energy in nJ (0 = continuous power)")
		period   = flag.Int64("tbpf", 0, "also fail every this many active cycles (periodic TBPF mode)")
		vmSize   = flag.Int("vmsize", 2048, "SVM in bytes")
		seed     = flag.Int64("seed", 1, "input seed")
		quiet    = flag.Bool("q", false, "print only the program output")
		timeline = flag.String("timeline", "", "write a Chrome trace-event timeline (Perfetto) to this file")
		folded   = flag.String("folded", "", "write folded energy stacks (flamegraph input) to this file")
		events   = flag.String("events", "", "write the raw NDJSON event stream to this file")
		sites    = flag.Bool("sites", false, "print the per-checkpoint-site energy table")
		inject   = flag.String("inject", "", "comma-separated failure points (kind@n, e.g. step@120,mid-save@2) injected on top of exhaustion")
		power    = flag.String("power", "", "power-environment spec (e.g. solar, rf:seed=7, duty:duty=0.2, trace:run.ndjson)")
		record   = flag.String("record", "", "record this run's power history as a replayable NDJSON trace file")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: iemu [flags] <prog.mc|prog.ir>")
		flag.Usage()
		os.Exit(2)
	}
	path := flag.Arg(0)
	m, _, _, err := cli.LoadProgram(path)
	fail(err)

	cfg, err := buildConfig(*eb, *period, *inject, *power, *vmSize)
	usage(err)
	cfg.Inputs = trace.RandomInputs(m, rand.New(rand.NewSource(*seed)))

	var rec *harvest.Recorder
	if *record != "" {
		if !cfg.Intermittent {
			usage(fmt.Errorf("-record needs a power-constrained run: give -eb or -power"))
		}
		if spec, _ := cli.ParsePower(*power); spec.Harvested() && hasTriggers(m) {
			usage(fmt.Errorf("-record: %s has MEMENTOS trigger checkpoints, which measure the harvested capacitor level; "+
				"a failure-point trace cannot carry that level, so its replay would diverge", path))
		}
		rec = harvest.NewRecorder(cfg.Schedule, cfg.EB)
		rec.SampleEvery = 5_000
	}

	var (
		observers []emulator.Observer
		tl        *obs.Timeline
		fl        *obs.Flame
		sw        *obs.StreamWriter
		col       *obs.Collector
		eventsF   *os.File
	)
	if *timeline != "" {
		tl = obs.NewTimeline(cfg.Model.EnergyPerCycle)
		observers = append(observers, tl)
	}
	if *folded != "" {
		fl = obs.NewFlame()
		observers = append(observers, fl)
	}
	if *events != "" {
		eventsF, err = os.Create(*events)
		fail(err)
		sw = obs.NewStreamWriter(eventsF)
		observers = append(observers, sw)
	}
	if *sites {
		col = obs.NewCollector()
		observers = append(observers, col)
	}
	if rec != nil {
		observers = append(observers, rec)
	}
	cfg.Observer = emulator.MultiObserver(observers...)

	res, err := emulator.Run(m, cfg)
	fail(err)

	if tl != nil {
		fail(cli.WriteTo(*timeline, tl.WriteChromeTrace))
	}
	if fl != nil {
		fail(cli.WriteTo(*folded, fl.WriteFolded))
	}
	if sw != nil {
		fail(sw.Flush())
		fail(eventsF.Close())
	}
	if rec != nil {
		fail(cli.WriteTo(*record, rec.Trace().Write))
	}

	for _, v := range res.Output {
		fmt.Println(v)
	}
	if !*quiet {
		l := res.Energy
		fmt.Fprintf(os.Stderr, "verdict:        %v\n", res.Verdict)
		fmt.Fprintf(os.Stderr, "cycles:         %d (total incl. re-exec: %d)\n", res.Cycles, res.TotalCycles)
		fmt.Fprintf(os.Stderr, "energy:         %.1f µJ  (compute %.1f, save %.1f, restore %.1f, re-exec %.1f)\n",
			l.Total()/1000, l.Computation/1000, l.Save/1000, l.Restore/1000, l.Reexecution/1000)
		fmt.Fprintf(os.Stderr, "power failures: %d   saves: %d   restores: %d   sleeps: %d\n",
			res.PowerFailures, res.Saves, res.Restores, res.Sleeps)
		if res.InjectedFailures > 0 || res.SaveAttempts != int64(res.Saves) {
			fmt.Fprintf(os.Stderr, "injected:       %d   save attempts: %d (torn/failed: %d)\n",
				res.InjectedFailures, res.SaveAttempts, res.SaveAttempts-int64(res.Saves))
		}
		fmt.Fprintf(os.Stderr, "VM high water:  %d B\n", res.MaxVMBytes)
	}
	if col != nil {
		if err := col.Reconcile(res); err != nil {
			fail(err)
		}
		col.RenderSites(os.Stderr)
	}
	if res.Verdict != emulator.Completed {
		os.Exit(1)
	}
}

// buildConfig assembles the emulator configuration from the power-model
// flags, all routed through the shared cli.PowerSpec grammar: the
// -power spec supplies the base physics (harvested capacitor, replayed
// trace, or synthetic members over exhaustion), while -tbpf and -inject
// compose periodic and trace members on top. Any power flag implies
// intermittent mode; without -eb, a harvested spec must pin its own
// capacitor (cap=) and synthetic schedules run energy-unconstrained.
// The config is validated here so flag mistakes surface before the
// program loads and runs, not as a mid-pipeline failure.
func buildConfig(eb float64, period int64, inject, power string, vmSize int) (emulator.Config, error) {
	spec, err := cli.ParsePower(power)
	if err != nil {
		return emulator.Config{}, err
	}
	var points []emulator.FailPoint
	if inject != "" {
		if points, err = parseInject(inject); err != nil {
			return emulator.Config{}, err
		}
	}

	cfg := emulator.Config{Model: energy.MSP430FR5969(), VMSize: vmSize}
	if eb <= 0 && spec.Empty() && period <= 0 && len(points) == 0 {
		return cfg, cfg.Validate() // continuous power
	}
	cfg.Intermittent = true
	cfg.EB = eb
	if cfg.EB == 0 {
		switch {
		case spec.Capacity() > 0:
			cfg.EB = spec.Capacity()
		case spec.Harvested():
			return emulator.Config{}, fmt.Errorf("harvested -power needs a capacitor size: give -eb or cap=<nJ>")
		default:
			cfg.EB = 1e12 // energy unconstrained: failures come from the schedule
		}
	}

	base, err := spec.Build(cfg.EB)
	if err != nil {
		return emulator.Config{}, err
	}
	var scheds []emulator.PowerSchedule
	if base != nil {
		scheds = append(scheds, base)
	}
	if period > 0 {
		scheds = append(scheds, emulator.Periodic(period))
	}
	if len(points) > 0 {
		scheds = append(scheds, emulator.TraceSchedule(points...))
	}
	if base == nil && len(scheds) > 0 {
		// Synthetic-only members ride on the built-in exhaustion physics.
		scheds = append([]emulator.PowerSchedule{emulator.Exhaustion()}, scheds...)
	}
	if len(scheds) > 0 {
		cfg.Schedule = emulator.Schedules(scheds...)
	}
	if err := cfg.Validate(); err != nil {
		return emulator.Config{}, err
	}
	return cfg, nil
}

// parseInject parses a comma-separated failure-point list (kind@n).
func parseInject(s string) ([]emulator.FailPoint, error) {
	var out []emulator.FailPoint
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kindStr, nStr, ok := strings.Cut(part, "@")
		if !ok {
			return nil, fmt.Errorf("bad failure point %q (want kind@n)", part)
		}
		kind, err := emulator.ParsePointKind(kindStr)
		if err != nil {
			return nil, err
		}
		var n int64
		if _, err := fmt.Sscanf(nStr, "%d", &n); err != nil || n <= 0 {
			return nil, fmt.Errorf("bad failure point %q: n must be a positive integer", part)
		}
		out = append(out, emulator.FailPoint{Kind: kind, N: n})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty -inject spec")
	}
	return out, nil
}

// hasTriggers reports whether m has a MEMENTOS trigger checkpoint.
func hasTriggers(m *ir.Module) bool {
	for _, ck := range ir.Checkpoints(m) {
		if ck.Kind == ir.CkTrigger {
			return true
		}
	}
	return false
}

var (
	fail  = cli.Fail("iemu", 1)
	usage = cli.Fail("iemu", 2)
)
