package main

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"time"

	"schematic/internal/baselines"
	"schematic/internal/bench"
	"schematic/internal/emulator"
	"schematic/internal/emulator/dispatch"
	"schematic/internal/energy"
	"schematic/internal/harvest"
	"schematic/internal/ir"
	"schematic/internal/minic"
	"schematic/internal/obs"
	"schematic/internal/trace"
)

// engineCell is one placed program ready to emulate, with the result
// of its exhaustion run from set-up as the reference.
type engineCell struct {
	name   string
	bench  string
	mod    *ir.Module
	inputs map[string][]int64
	eb     float64
	env    harvest.Environment
	ref    *emulator.Result
}

// family is one way of powering the emulator: the batched exhaustion
// physics, a harvested-energy capacitor (the stepped path), or exhaustion
// with an attribution observer attached.
type family string

const (
	exhaustion family = "exhaustion"
	harvested  family = "harvested"
	observed   family = "observed"
)

// runEngine times only emulator.Run, over the whole suite placed by every
// technique at every TBPF, under each power family in turn. The order of
// the families alternates between rounds so that none always runs on a
// cache the previous one warmed.
func runEngine(ctx context.Context, p *params, o *outcome) error {
	model := energy.MSP430FR5969()
	var cells []engineCell
	setup := func() (err error) {
		cells, _, err = engineSetup(ctx, p, model, nil, 0)
		return err
	}
	passes := map[family][]float64{} // untraced pass times, s
	steps := map[family]int64{}      // instructions over the untraced passes
	err := p.repeat(o, setup, func(i int, traced bool) error {
		order := []family{exhaustion, harvested, observed}
		if i%2 == 1 {
			order = []family{observed, harvested, exhaustion}
		}
		var tr *tracer
		var root int64
		var endRoot func()
		round := cells
		counts := map[string]float64{}
		t0 := time.Now()
		if traced {
			tr = newTracer()
			root, endRoot = tr.begin(0, "", "engine")
			var err error
			var st setupStats
			if round, st, err = engineSetup(ctx, p, model, tr, root); err != nil {
				return err
			}
			counts["trace.runs"] = float64(st.profiled * p.engineProfileRuns)
			counts["baselines.declined_ratio"] = float64(st.declined) / float64(st.placed+st.declined)
		}
		// The job is one pass of each family.
		var job time.Duration
		for _, fam := range order {
			d, n := enginePass(p, o, model, round, fam, tr, root, counts)
			job += d
			counts["emulator."+string(fam)+".minstr_per_s"] = float64(n) / d.Seconds() / 1e6
			if !traced {
				passes[fam] = append(passes[fam], d.Seconds())
				steps[fam] += n
			}
		}
		if traced {
			endRoot()
			o.traced = append(o.traced, job)
			o.acct.add(tr, p.workers, time.Since(t0))
			o.counts = counts
		} else {
			o.jobs = append(o.jobs, job)
		}
		return nil
	})
	if err != nil {
		return err
	}
	o.note("cells", len(cells))
	for fam, ds := range passes {
		o.note(string(fam)+"_minstr_per_s", float64(steps[fam])/sum(ds)/1e6)
	}
	o.opsPerPass = len(cells) * len(passes) // a run per cell and family
	o.note("passes_s", passes)
	return nil
}

// setupStats counts what engineSetup did: programs profiled, and
// placements made and declined.
type setupStats struct{ profiled, placed, declined int }

// engineSetup compiles, profiles and places the suite by every technique
// at every TBPF, precompiles each placed module for the dispatch engine,
// and keeps the cells whose exhaustion run completes with the MiniC
// interpreter's output.
func engineSetup(ctx context.Context, p *params, model *energy.Model, tr *tracer, parent int64) ([]engineCell, setupStats, error) {
	var st setupStats
	bms, err := bench.All()
	if err != nil {
		return nil, st, err
	}
	if p.engineBenches != nil {
		bms = nil
		for _, name := range p.engineBenches {
			b, err := bench.ByName(name)
			if err != nil {
				return nil, st, err
			}
			bms = append(bms, b)
		}
	}
	perBench := make([][]engineCell, len(bms))
	declined, placed := make([]int, len(bms)), make([]int, len(bms))
	err = bench.ParallelForCtx(ctx, p.workers, len(bms), func(i int) error {
		b := bms[i]
		_, end := tr.begin(parent, b.Name, "minic.compile")
		m, err := minic.Compile(b.Name, b.Source)
		end()
		if err != nil {
			return err
		}
		inputs := trace.RandomInputs(m, rand.New(rand.NewSource(p.seed)))
		_, end = tr.begin(parent, b.Name, "oracle")
		want, err := interpret(b.Name, b.Source, func() (map[string][]int64, error) { return inputs, nil })
		end()
		if err != nil {
			return err
		}
		_, end = tr.begin(parent, b.Name, "trace.collect")
		prof, err := trace.Collect(m, trace.Options{Runs: p.engineProfileRuns, Seed: p.seed, Model: model})
		end()
		if err != nil {
			return err
		}
		envs := []harvest.Environment{harvest.Solar{Seed: p.seed}, harvest.RF{Seed: p.seed}, harvest.Duty{}}
		for _, tech := range bench.Techniques() {
			if !tech.SupportsVM(m, 2048) {
				continue
			}
			layer := applyLayer(tech.Name())
			for _, tbpf := range bench.TBPFs {
				name := fmt.Sprintf("%s/%s/%d", b.Name, tech.Name(), tbpf)
				clone := ir.Clone(m)
				eb := prof.EBForTBPF(tbpf)
				_, end = tr.begin(parent, name, layer)
				err := tech.Apply(clone, baselines.Params{Model: model, Budget: eb, VMSize: 2048, Profile: prof})
				end()
				if err != nil {
					declined[i]++ // the technique declines this program at this budget
					continue
				}
				placed[i]++
				_, end = tr.begin(parent, name, "dispatch.compile")
				dispatch.For(clone, model)
				end()
				_, end = tr.begin(parent, name, "emulator.exhaustion")
				ref, err := emulator.Run(clone, emulator.Config{
					Model: model, VMSize: 2048, Intermittent: true, EB: eb, Inputs: inputs,
				})
				end()
				if err != nil {
					return fmt.Errorf("%s: %w", name, err)
				}
				if ref.Verdict != emulator.Completed {
					continue // no forward progress (a Table III ✗): not part of the workload
				}
				if !reflect.DeepEqual(ref.Output, want) {
					return fmt.Errorf("%s: exhaustion output differs from the MiniC interpreter", name)
				}
				k := len(perBench[i])
				perBench[i] = append(perBench[i], engineCell{
					name: name, bench: b.Name, mod: clone, inputs: inputs, eb: eb, env: envs[k%len(envs)], ref: ref,
				})
			}
		}
		return nil
	})
	if err != nil {
		return nil, st, err
	}
	var cells []engineCell
	for i, cs := range perBench {
		cells = append(cells, cs...)
		st.declined += declined[i]
		st.placed += placed[i]
	}
	st.profiled = len(bms)
	return cells, st, nil
}

// enginePass emulates every cell once under one power family and checks
// each result against the cell's reference. It returns the summed
// emulator.Run time and the instructions executed.
func enginePass(p *params, o *outcome, model *energy.Model, cells []engineCell, fam family, tr *tracer, parent int64, counts map[string]float64) (time.Duration, int64) {
	var total time.Duration
	var steps int64
	layer := "emulator." + string(fam)
	for _, c := range cells {
		cfg := emulator.Config{Model: model, VMSize: 2048, Intermittent: true, EB: c.eb, Inputs: c.inputs}
		var col *obs.Collector
		switch fam {
		case harvested:
			cfg.Schedule = harvest.Capacitor{Env: c.env, Capacity: c.eb}.Schedule()
		case observed:
			col = obs.NewCollector()
			cfg.Observer = col
		}
		_, end := tr.begin(parent, c.name, layer)
		t0 := time.Now()
		res, err := emulator.Run(c.mod, cfg)
		d := time.Since(t0)
		end()
		total += d
		o.attempted++
		o.op(string(fam)+" "+c.name, c.bench, d)
		if err != nil {
			o.fail("%s %s: %v", c.name, fam, err)
			continue
		}
		steps += res.Steps
		counts["emulator.steps"] += float64(res.Steps)
		counts["emulator.power_failures"] += float64(res.PowerFailures)
		if len(res.Output) > 0 && p.tamper() {
			res.Output[0]++
		}
		if res.Verdict == emulator.Completed {
			counts["cells.completed"]++
		}
		ok := true
		switch fam {
		case harvested:
			// A capacitor sized to EB that restarts when full is never
			// harsher than exhaustion, so the run must finish with the
			// reference output, though its failure count may differ.
			if res.Verdict != emulator.Completed || !reflect.DeepEqual(res.Output, c.ref.Output) {
				ok = false
				o.fail("%s %s: verdict %v, output differs from the exhaustion reference", c.name, fam, res.Verdict)
			}
		default:
			if !reflect.DeepEqual(res, c.ref) {
				ok = false
				o.fail("%s %s: result differs from the exhaustion reference", c.name, fam)
			}
		}
		if col != nil {
			_, end := tr.begin(parent, c.name, "obs.reconcile")
			err := col.Reconcile(res)
			end()
			if err != nil {
				ok = false
				o.fail("%s %s: %v", c.name, fam, err)
			}
		}
		if ok {
			counts["cells.correct"]++
		}
	}
	return total, steps
}
