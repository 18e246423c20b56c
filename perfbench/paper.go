package main

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"strconv"
	"sync"
	"time"

	"schematic/internal/bench"
	"schematic/internal/emulator"
	"schematic/internal/minic"
)

// runPaper is the researcher's job: the calls of `paper -all`, in order,
// each repetition on a fresh bench.Harness as a fresh CLI run would have.
// Set-up compiles the suite and computes the reference outputs with the
// MiniC interpreter, which shares no code with the compiled pipeline.
func runPaper(ctx context.Context, p *params, o *outcome) error {
	var oracle map[string][]int64
	setup := func() (err error) {
		oracle, err = paperOracle(p.seed)
		return err
	}
	var first []byte
	cells := 0
	err := p.repeat(o, setup, func(i int, traced bool) error {
		var tr *tracer
		if traced {
			tr = newTracer()
		}
		t0 := time.Now()
		rendered, runs, recs, err := paperPass(ctx, p, tr)
		if err != nil {
			return err
		}
		wall := time.Since(t0)
		if traced {
			o.traced = append(o.traced, wall)
			o.acct.add(tr, p.workers, wall)
			o.counts = paperCounts(p, recs)
		} else {
			o.jobs = append(o.jobs, wall)
		}
		cells = len(recs)
		// A cell's own work is its placement and its emulation; the
		// profile it starts with is shared by every cell of its benchmark,
		// and which cell ends up computing it depends on scheduling.
		for k, r := range recs {
			if r.Supported {
				o.op(strconv.Itoa(k), r.Bench, time.Duration((r.ApplyMS+r.EmulateMS)*float64(time.Millisecond)))
			}
		}
		o.attempted += len(recs)
		checkPaper(p, o, runs, oracle)
		if first == nil {
			first = rendered
		} else if !bytes.Equal(rendered, first) {
			o.fail("repetition %d rendered different tables than repetition 0", i)
		}
		return nil
	})
	o.opsPerPass = cells
	return err
}

// paperOracle compiles the suite and interprets every benchmark on the
// harness's inputs for the seed.
func paperOracle(seed int64) (map[string][]int64, error) {
	bms, err := bench.All()
	if err != nil {
		return nil, err
	}
	out := map[string][]int64{}
	for _, b := range bms {
		if _, err := minic.Compile(b.Name, b.Source); err != nil {
			return nil, err
		}
		want, err := interpret(b.Name, b.Source, func() (map[string][]int64, error) { return b.Inputs(seed) })
		if err != nil {
			return nil, err
		}
		out[b.Name] = want
	}
	return out, nil
}

// interpret runs the MiniC reference interpreter on the inputs.
func interpret(name, src string, inputs func() (map[string][]int64, error)) ([]int64, error) {
	file, err := minic.ParseFile(name, src)
	if err != nil {
		return nil, err
	}
	if err := minic.Check(file); err != nil {
		return nil, err
	}
	in, err := inputs()
	if err != nil {
		return nil, err
	}
	res, err := minic.Interpret(file, in, 0)
	if err != nil {
		return nil, fmt.Errorf("interpret %s: %w", name, err)
	}
	return res.Output, nil
}

// checkPaper requires every completed cell to match its continuous-power
// reference, and every reference to match the interpreter.
func checkPaper(p *params, o *outcome, runs []*bench.TechRun, oracle map[string][]int64) {
	for _, tr := range runs {
		if tr.Completed() && len(tr.Res.Output) > 0 && p.tamper() {
			tr.Res.Output[0]++
		}
		if tr.Completed() && !tr.Correct() {
			o.fail("%s/%s/TBPF=%d: output differs from the continuous-power reference", tr.Bench, tr.Technique, tr.TBPF)
		}
		if tr.RefOutput != nil && !reflect.DeepEqual(tr.RefOutput, oracle[tr.Bench]) {
			o.fail("%s: continuous-power reference differs from the MiniC interpreter", tr.Bench)
		}
	}
}

// paperPass runs Tables I-III, Figures 6-8, the headline and the
// ablations into one buffer, returning every cell run and the harness's
// per-cell records. With a tracer, each experiment gets a span and each
// cell's phases become spans under it (see spanCells).
func paperPass(ctx context.Context, p *params, tr *tracer) ([]byte, []*bench.TechRun, []bench.CellRecord, error) {
	h := bench.NewHarness()
	h.ProfileRuns = p.paperProfileRuns
	h.VMSize = 2048
	h.Seed = p.seed
	h.Jobs = p.workers
	report := h.StartReport()
	probes := &cellProbes{at: map[string]time.Time{}}
	if tr != nil {
		h.CellObserver = probes.observer
	}

	var buf bytes.Buffer
	var runs []*bench.TechRun
	root, endRoot := tr.begin(0, "", "paper")
	defer endRoot()
	step := func(name string, f func(parent int64) error) error {
		id, end := tr.begin(root, "", "paper."+name)
		seen := len(report.Records())
		err := f(id)
		end()
		if tr != nil {
			spanCells(tr, id, report.Records()[seen:], probes, time.Now())
		}
		buf.WriteByte('\n')
		return err
	}
	collect := func(m map[string]*bench.TechRun) {
		for _, r := range m {
			runs = append(runs, r)
		}
	}

	var fig6 map[string]map[string]*bench.TechRun
	steps := []struct {
		name string
		f    func(parent int64) error
	}{
		{"table1", func(int64) error {
			t1, err := h.Table1(ctx)
			if err == nil {
				bench.RenderTable1(&buf, t1)
			}
			return err
		}},
		{"table2", func(parent int64) error {
			if tr != nil {
				// Compute the references under spans first; Table2 then
				// reads them from the harness cache.
				bms, err := bench.All()
				if err != nil {
					return err
				}
				err = bench.ParallelForCtx(ctx, p.workers, len(bms), func(i int) error {
					_, end := tr.begin(parent, bms[i].Name, "emulator.continuous")
					defer end()
					_, err := h.ReferenceAllVM(ctx, bms[i])
					return err
				})
				if err != nil {
					return err
				}
			}
			rows, err := h.Table2(ctx)
			if err == nil {
				bench.RenderTable2(&buf, rows)
			}
			return err
		}},
		{"table3", func(int64) error {
			t3, err := h.Table3(ctx)
			if err == nil {
				bench.RenderTable3(&buf, t3)
				for _, byTBPF := range t3 {
					for _, m := range byTBPF {
						collect(m)
					}
				}
			}
			return err
		}},
		{"figure6", func(int64) error {
			var err error
			fig6, err = h.Figure6(ctx, bench.Fig6TBPF)
			if err == nil {
				bench.RenderFigure6(&buf, fig6, bench.Fig6TBPF)
				for _, m := range fig6 {
					collect(m)
				}
			}
			return err
		}},
		{"figure7", func(int64) error {
			fig7, err := h.Figure7(ctx, bench.Fig6TBPF)
			if err == nil {
				bench.RenderFigure7(&buf, fig7, bench.Fig6TBPF)
				for _, m := range fig7 {
					collect(m)
				}
			}
			return err
		}},
		{"figure8", func(int64) error {
			fig8, err := h.Figure8(ctx, "crc")
			if err == nil {
				bench.RenderFigure8(&buf, fig8, "crc")
				for _, m := range fig8 {
					for _, r := range m {
						runs = append(runs, r)
					}
				}
			}
			return err
		}},
		{"headline", func(int64) error {
			bench.RenderHeadline(&buf, bench.ComputeHeadline(fig6))
			return nil
		}},
		{"ablations", func(int64) error {
			abl, err := h.Ablations(ctx, bench.Fig6TBPF)
			if err == nil {
				bench.RenderAblations(&buf, abl, bench.Fig6TBPF)
				for _, m := range abl {
					collect(m)
				}
			}
			return err
		}},
	}
	for _, s := range steps {
		if err := step(s.name, s.f); err != nil {
			return nil, nil, nil, fmt.Errorf("%s: %w", s.name, err)
		}
	}
	return buf.Bytes(), runs, report.Records(), nil
}

// cellProbes notes when each cell's emulation starts. The harness asks
// CellObserver for an observer right before it starts the emulator;
// returning nil keeps the emulator on its unobserved fast path.
type cellProbes struct {
	mu sync.Mutex
	at map[string]time.Time
}

func cellKey(bench, tech string, tbpf int64) string {
	return fmt.Sprintf("%s/%s/%d", bench, tech, tbpf)
}

func (c *cellProbes) observer(bench, tech string, tbpf int64) emulator.Observer {
	now := time.Now()
	c.mu.Lock()
	c.at[cellKey(bench, tech, tbpf)] = now
	c.mu.Unlock()
	return nil
}

func (c *cellProbes) take(key string) (time.Time, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.at[key]
	delete(c.at, key)
	return t, ok
}

// coreTechniques are the techniques whose placement runs internal/core:
// the SCHEMATIC pass and its ablation variants.
var coreTechniques = func() map[string]bool {
	m := map[string]bool{}
	for _, v := range bench.Variants() {
		m[v.Label] = true
	}
	return m
}()

// applyLayer names the layer a technique's placement runs in.
func applyLayer(technique string) string {
	if coreTechniques[technique] {
		return "core.apply"
	}
	return "baselines.apply"
}

// spanCells turns the harness's per-cell phase timings into spans under
// the experiment's span: the cell (bench.harness), its profile lookup
// (trace.collect), its placement (core.apply or baselines.apply) and its
// emulation (emulator.exhaustion). The probe places a cell in time; a
// cell that never reached the emulator is placed at the experiment's end.
func spanCells(tr *tracer, parent int64, recs []bench.CellRecord, probes *cellProbes, expEnd time.Time) {
	dur := func(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }
	for _, r := range recs {
		key := cellKey(r.Bench, r.Technique, r.TBPF)
		wall, prof, apply, emu := dur(r.WallMS), dur(r.ProfileMS), dur(r.ApplyMS), dur(r.EmulateMS)
		emuStart, probed := probes.take(key)
		cellEnd := expEnd
		if probed {
			cellEnd = emuStart.Add(emu)
		} else {
			emuStart = cellEnd
		}
		cellStart := cellEnd.Add(-wall)
		cell := tr.record(parent, key, "bench.harness", cellStart, cellEnd)
		tr.record(cell, key, "trace.collect", cellStart, cellStart.Add(prof))
		if apply > 0 {
			tr.record(cell, key, applyLayer(r.Technique), emuStart.Add(-apply), emuStart)
		}
		if probed {
			tr.record(cell, key, "emulator.exhaustion", emuStart, cellEnd)
		}
	}
}

// paperCounts derives the per-layer counts from one traced pass.
func paperCounts(p *params, recs []bench.CellRecord) map[string]float64 {
	c := map[string]float64{}
	var steps, supported, declined float64
	var emu time.Duration
	profiled := map[string]bool{}
	for _, r := range recs {
		profiled[r.Bench] = true
		steps += float64(r.Steps)
		c["emulator.power_failures"] += float64(r.PowerFailures)
		emu += time.Duration(r.EmulateMS * float64(time.Millisecond))
		if r.Completed {
			c["cells.completed"]++
		}
		if r.Correct {
			c["cells.correct"]++
		}
		if r.Supported {
			supported++
		}
		if r.ApplyErr != "" {
			declined++
		}
	}
	c["emulator.steps"] = steps
	c["trace.runs"] = float64(len(profiled) * p.paperProfileRuns)
	if emu > 0 {
		c["emulator.exhaustion.minstr_per_s"] = steps / emu.Seconds() / 1e6
	}
	if supported > 0 {
		c["baselines.declined_ratio"] = declined / supported
	}
	return c
}
