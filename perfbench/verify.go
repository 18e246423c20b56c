package main

import (
	"context"
	"fmt"
	"time"

	"schematic/internal/bench"
	"schematic/internal/crashtest"
	"schematic/internal/verify"
)

// verifyCase is a case with its known answer: correct placements hold
// no violation, and a placement with a checkpoint deleted does.
type verifyCase struct {
	cs       crashtest.Case
	negative bool
}

func verifyCases(p *params) ([]verifyCase, error) {
	pos, err := crashtest.BenchCases(p.verifyBenches, crashtest.TechniqueNames(), p.seed)
	if err != nil {
		return nil, err
	}
	var out []verifyCase
	for _, cs := range pos {
		out = append(out, verifyCase{cs: cs})
	}
	// Deleting these checkpoints exposes a write-after-read hazard for
	// every input seed. (Ratchet's first checkpoint on crc is not one of
	// them: without it the placement is still correct.)
	for _, neg := range []struct {
		bench, tech string
		sabotage    int
	}{{"randmath", "Alfred", 1}, {"crc", "Ratchet", 2}} {
		b, err := bench.ByName(neg.bench)
		if err != nil {
			return nil, err
		}
		out = append(out, verifyCase{negative: true, cs: crashtest.Case{
			Name: b.Name, Source: b.Source, Technique: neg.tech, InputSeed: p.seed, Sabotage: neg.sabotage,
		}})
	}
	return out, nil
}

// runVerify sweeps the exhaustive verifier and then the sampling hunter
// over the same cases, each on a NumCPU worker pool. Set-up prepares
// every case (compile, oracle run, profile, placement), which also
// rejects a case list that cannot be built.
func runVerify(ctx context.Context, p *params, o *outcome) error {
	cases, err := verifyCases(p)
	if err != nil {
		return err
	}
	plain := make([]crashtest.Case, len(cases))
	for i, c := range cases {
		plain[i] = c.cs
	}
	setup := func() error {
		return bench.ParallelForCtx(ctx, p.workers, len(plain), func(i int) error {
			_, err := crashtest.Prepare(plain[i], crashtest.Options{})
			if crashtest.IsSkip(err) {
				return nil
			}
			return err
		})
	}
	o.note("cases", len(cases))

	err = p.repeat(o, setup, func(i int, traced bool) error {
		var tr *tracer
		var vres []verify.SweepResult
		var hres []crashtest.HuntResult
		t0 := time.Now()
		if traced {
			tr = newTracer()
			vres, hres = tracedSweep(ctx, p, tr, plain)
		} else {
			vres = (&verify.Sweeper{Jobs: p.workers}).Run(ctx, plain)
			hres = (&crashtest.Hunter{Jobs: p.workers}).Run(ctx, plain)
		}
		wall := time.Since(t0)
		counts := checkVerify(p, o, cases, vres, hres)
		if traced {
			o.traced = append(o.traced, wall)
			o.acct.add(tr, p.workers, wall)
			o.counts = counts
		} else {
			o.jobs = append(o.jobs, wall)
		}
		return nil
	})
	o.opsPerPass = 2 * len(cases) // a verdict and a hunt per case
	return err
}

// tracedSweep does what Sweeper.Run and Hunter.Run do, with a span
// around each case's call into verify.Run and crashtest.Hunt.
func tracedSweep(ctx context.Context, p *params, tr *tracer, cases []crashtest.Case) ([]verify.SweepResult, []crashtest.HuntResult) {
	vres := make([]verify.SweepResult, len(cases))
	hres := make([]crashtest.HuntResult, len(cases))
	root, end := tr.begin(0, "", "verify")
	defer end()
	_ = bench.ParallelForCtx(ctx, p.workers, len(cases), func(i int) error {
		_, end := tr.begin(root, caseID(cases[i]), "verify.run")
		t0 := time.Now()
		rep, err := verify.Run(ctx, cases[i], verify.Options{})
		end()
		vres[i] = verify.SweepResult{Case: cases[i], Report: rep, Err: err, Elapsed: time.Since(t0)}
		if crashtest.IsSkip(err) {
			vres[i].Skipped, vres[i].Err, vres[i].Report = err.Error(), nil, nil
		}
		return nil
	})
	_ = bench.ParallelForCtx(ctx, p.workers, len(cases), func(i int) error {
		_, end := tr.begin(root, caseID(cases[i]), "crashtest.hunt")
		t0 := time.Now()
		f, err := crashtest.Hunt(ctx, cases[i], crashtest.Options{})
		end()
		hres[i] = crashtest.HuntResult{Case: cases[i], Finding: f, Err: err, Elapsed: time.Since(t0)}
		if crashtest.IsSkip(err) {
			hres[i].Skipped, hres[i].Err = err.Error(), nil
		}
		return nil
	})
	return vres, hres
}

// checkVerify compares every verdict with the case's known answer and
// returns the per-layer counts of the sweep.
func checkVerify(p *params, o *outcome, cases []verifyCase, vres []verify.SweepResult, hres []crashtest.HuntResult) map[string]float64 {
	c := map[string]float64{}
	var verifyTime time.Duration
	var dedup float64
	for i, vc := range cases {
		v, h := vres[i], hres[i]
		id := caseID(vc.cs)
		o.attempted += 2
		o.op("verify "+id, vc.cs.Name, v.Elapsed)
		o.op("hunt "+id, vc.cs.Name, h.Elapsed)
		verifyTime += v.Elapsed
		for _, skipped := range []string{v.Skipped, h.Skipped} {
			if skipped != "" {
				c["crashtest.skips"]++
			}
		}
		found := v.Report != nil && v.Report.Verdict == verify.Counterexample
		proved := v.Report != nil && v.Report.Verdict == verify.Verified
		hunted := h.Finding != nil
		if p.tamper() {
			found, proved = !found, !proved
		}
		var verdictOK, huntOK bool
		switch {
		case v.Err != nil:
			o.fail("verify %s: %v", id, v.Err)
		case vc.negative:
			verdictOK = found
		default:
			// A case the technique cannot run under exhaustion is skipped:
			// there is no placement to judge.
			verdictOK = proved || v.Skipped != ""
		}
		switch {
		case h.Err != nil:
			o.fail("hunt %s: %v", id, h.Err)
		case vc.negative:
			huntOK = hunted
		default:
			huntOK = !hunted
		}
		if v.Err == nil && !verdictOK {
			o.fail("verify %s: verdict %s, want %s", id, verdictOf(v), want(vc.negative, "counterexample", "verified"))
		}
		if h.Err == nil && !huntOK {
			o.fail("hunt %s: finding %v, want %s", id, hunted, want(vc.negative, "a finding", "none"))
		}
		if v.Report != nil {
			c["cells.completed"]++
			if verdictOK {
				c["cells.correct"]++
			}
			c["verify.states"] += float64(v.Report.States)
			c["verify.edges"] += float64(v.Report.Edges)
			dedup += float64(v.Report.DedupHits)
		}
		if h.Skipped == "" && h.Err == nil {
			c["cells.completed"]++
			if huntOK {
				c["cells.correct"]++
			}
		}
	}
	if c["verify.edges"] > 0 {
		c["verify.dedup_ratio"] = dedup / c["verify.edges"]
	}
	if verifyTime > 0 {
		c["verify.states_per_s"] = c["verify.states"] / verifyTime.Seconds()
	}
	return c
}

func caseID(c crashtest.Case) string {
	return fmt.Sprintf("%s/%s sabotage=%d", c.Name, c.Technique, c.Sabotage)
}

func verdictOf(r verify.SweepResult) string {
	if r.Report == nil {
		return "skipped"
	}
	return string(r.Report.Verdict)
}

func want(negative bool, neg, pos string) string {
	if negative {
		return neg
	}
	return pos
}
