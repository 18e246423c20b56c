// Concurrent experiment runner: the paper's evaluation is a grid of
// (benchmark × technique × TBPF) cells that are fully independent — each
// cell transforms its own clone of the benchmark module — so the grid
// fans out across a worker pool while the harness caches (profiles,
// continuous-power references) collapse the shared work to exactly one
// computation per configuration. Results are collected by cell index, so
// the output is byte-identical regardless of the worker count.
package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"

	"schematic/internal/baselines"
)

// Cell identifies one (benchmark, technique, TBPF) grid cell.
type Cell struct {
	Bench *Benchmark
	Tech  baselines.Technique
	TBPF  int64
}

// jobs resolves the effective worker count.
func (h *Harness) jobs() int {
	if h.Jobs > 0 {
		return h.Jobs
	}
	return runtime.NumCPU()
}

// parallelFor runs fn(0..n-1) on the harness worker pool.
func (h *Harness) parallelFor(ctx context.Context, n int, fn func(i int) error) error {
	return ParallelForCtx(ctx, h.jobs(), n, fn)
}

// ParallelForCtx runs fn(0..n-1) on up to the given number of workers
// and returns the error of the lowest index that failed — the same error
// a sequential in-order loop would have surfaced first. With one worker
// it degrades to a plain loop (no goroutines), preserving sequential
// order. When the context is cancelled, no further indices are
// dispatched, in-flight calls are awaited, and ctx.Err() is returned
// unless an index failed with its own error first. Other subsystems with
// the same fan-out shape (e.g. crashtest's case driver) reuse it rather
// than growing their own pool.
func ParallelForCtx(ctx context.Context, workers, n int, fn func(i int) error) error {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		mu     sync.Mutex
		wg     sync.WaitGroup
		errIdx = -1
		errVal error
	)
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if ctx.Err() != nil {
					continue // drain without running
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if errIdx < 0 || i < errIdx {
						errIdx, errVal = i, err
					}
					mu.Unlock()
				}
			}
		}()
	}
dispatch:
	for i := 0; i < n; i++ {
		select {
		case next <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(next)
	wg.Wait()
	if errVal == nil {
		errVal = ctx.Err()
	}
	return errVal
}

// RunGrid executes the cells on the harness worker pool and returns the
// results in cell order — deterministic regardless of Jobs. The cells
// are also appended, in cell order, to the harness run report under the
// given experiment label. Cancelling the context stops dispatching
// further cells and returns ctx.Err() promptly.
func (h *Harness) RunGrid(ctx context.Context, experiment string, cells []Cell) ([]*TechRun, error) {
	results := make([]*TechRun, len(cells))
	err := h.parallelFor(ctx, len(cells), func(i int) error {
		tr, err := h.Run(ctx, cells[i].Bench, cells[i].Tech, cells[i].TBPF)
		if err != nil {
			return err
		}
		results[i] = tr
		return nil
	})
	if err != nil {
		return nil, err
	}
	h.mu.Lock()
	report := h.report
	h.mu.Unlock()
	if report != nil {
		report.addGrid(experiment, results)
	}
	return results, nil
}

// ---- run report ----

// CellRecord is one grid cell's observability record, the unit of the
// NDJSON dump (`cmd/paper -stats out.ndjson`).
type CellRecord struct {
	Experiment string `json:"experiment"`
	Bench      string `json:"bench"`
	Technique  string `json:"technique"`
	TBPF       int64  `json:"tbpf"`

	Supported bool   `json:"supported"`
	ApplyErr  string `json:"apply_err,omitempty"`
	Verdict   string `json:"verdict,omitempty"`
	Completed bool   `json:"completed"`
	Correct   bool   `json:"correct"`

	EBnJ float64 `json:"eb_nj"`

	// Phase timings in milliseconds: total wall, profiling share (zero on
	// a profile-cache hit), transformation, intermittent emulation.
	WallMS    float64 `json:"wall_ms"`
	ProfileMS float64 `json:"profile_ms"`
	ApplyMS   float64 `json:"apply_ms"`
	EmulateMS float64 `json:"emulate_ms"`

	// Emulator counters (zero when the cell did not run).
	Steps         int64 `json:"steps,omitempty"`
	Cycles        int64 `json:"cycles,omitempty"`
	TotalCycles   int64 `json:"total_cycles,omitempty"`
	PowerFailures int   `json:"power_failures,omitempty"`
	Saves         int   `json:"saves,omitempty"`
	Restores      int   `json:"restores,omitempty"`

	// Energy-category breakdown (Fig. 6 categories), nJ.
	EnergyComputeNJ float64 `json:"energy_compute_nj,omitempty"`
	EnergySaveNJ    float64 `json:"energy_save_nj,omitempty"`
	EnergyRestoreNJ float64 `json:"energy_restore_nj,omitempty"`
	EnergyReexecNJ  float64 `json:"energy_reexec_nj,omitempty"`
	EnergyTotalNJ   float64 `json:"energy_total_nj,omitempty"`

	// HotSites is the top-N hottest checkpoint sites by attributed energy
	// (present only when the harness ran with CollectSites).
	HotSites []HotSite `json:"hot_sites,omitempty"`
}

// HotSite is the NDJSON form of one checkpoint site's attribution.
type HotSite struct {
	Site       int     `json:"site"`
	Fires      int64   `json:"fires"`
	Saves      int64   `json:"saves"`
	Restores   int64   `json:"restores"`
	BytesSaved int64   `json:"bytes_saved"`
	SaveNJ     float64 `json:"save_nj"`
	RestoreNJ  float64 `json:"restore_nj"`
	ReexecNJ   float64 `json:"reexec_nj"`
}

func recordOf(experiment string, tr *TechRun) CellRecord {
	rec := CellRecord{
		Experiment: experiment,
		Bench:      tr.Bench,
		Technique:  tr.Technique,
		TBPF:       tr.TBPF,
		Supported:  tr.Supported,
		Completed:  tr.Completed(),
		Correct:    tr.Correct(),
		EBnJ:       tr.EB,
		WallMS:     float64(tr.Stats.Wall) / float64(time.Millisecond),
		ProfileMS:  float64(tr.Stats.Profile) / float64(time.Millisecond),
		ApplyMS:    float64(tr.Stats.Apply) / float64(time.Millisecond),
		EmulateMS:  float64(tr.Stats.Emulate) / float64(time.Millisecond),
	}
	if tr.ApplyErr != nil {
		rec.ApplyErr = tr.ApplyErr.Error()
	}
	if tr.Res != nil {
		rec.Verdict = tr.Res.Verdict.String()
		rec.Steps = tr.Res.Steps
		rec.Cycles = tr.Res.Cycles
		rec.TotalCycles = tr.Res.TotalCycles
		rec.PowerFailures = tr.Res.PowerFailures
		rec.Saves = tr.Res.Saves
		rec.Restores = tr.Res.Restores
		rec.EnergyComputeNJ = tr.Res.Energy.Computation
		rec.EnergySaveNJ = tr.Res.Energy.Save
		rec.EnergyRestoreNJ = tr.Res.Energy.Restore
		rec.EnergyReexecNJ = tr.Res.Energy.Reexecution
		rec.EnergyTotalNJ = tr.Res.Energy.Total()
	}
	for _, s := range tr.HotSites {
		rec.HotSites = append(rec.HotSites, HotSite{
			Site:       s.Site,
			Fires:      s.Fires,
			Saves:      s.Saves,
			Restores:   s.Restores,
			BytesSaved: s.BytesSaved,
			SaveNJ:     s.SaveEnergy,
			RestoreNJ:  s.RestoreEnergy,
			ReexecNJ:   s.ReexecEnergy,
		})
	}
	return rec
}

// RunReport aggregates per-cell records across the experiments of one
// harness run. It is safe for concurrent use.
type RunReport struct {
	mu      sync.Mutex
	records []CellRecord
	started time.Time
}

// StartReport attaches a fresh run report to the harness; subsequent
// RunGrid calls append their cells to it. Returns the report.
func (h *Harness) StartReport() *RunReport {
	r := &RunReport{started: time.Now()}
	h.mu.Lock()
	h.report = r
	h.mu.Unlock()
	return r
}

func (r *RunReport) addGrid(experiment string, results []*TechRun) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, tr := range results {
		if tr == nil {
			continue
		}
		r.records = append(r.records, recordOf(experiment, tr))
	}
}

// Records returns a copy of the collected records in insertion order
// (experiments sequentially, cells in grid order within each).
func (r *RunReport) Records() []CellRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]CellRecord, len(r.records))
	copy(out, r.records)
	return out
}

// WriteNDJSON dumps one JSON object per line, sorted by (experiment,
// bench, technique, TBPF) so the dump is deterministic.
func (r *RunReport) WriteNDJSON(w io.Writer) error {
	recs := r.Records()
	sort.SliceStable(recs, func(i, j int) bool {
		a, b := recs[i], recs[j]
		if a.Experiment != b.Experiment {
			return a.Experiment < b.Experiment
		}
		if a.Bench != b.Bench {
			return a.Bench < b.Bench
		}
		if a.Technique != b.Technique {
			return a.Technique < b.Technique
		}
		return a.TBPF < b.TBPF
	})
	enc := json.NewEncoder(w)
	for _, rec := range recs {
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return nil
}

// Summary prints the aggregate: cell counts, phase-time totals, and the
// harness cache traffic. It contains wall-clock values, so cmd/paper
// sends it to stderr to keep stdout byte-identical across -jobs values.
func (r *RunReport) Summary(w io.Writer, h *Harness) {
	recs := r.Records()
	var completed, correct int
	var wall, apply, emulate, profile time.Duration
	var steps int64
	var failures int
	for _, rec := range recs {
		if rec.Completed {
			completed++
		}
		if rec.Correct {
			correct++
		}
		wall += time.Duration(rec.WallMS * float64(time.Millisecond))
		apply += time.Duration(rec.ApplyMS * float64(time.Millisecond))
		emulate += time.Duration(rec.EmulateMS * float64(time.Millisecond))
		profile += time.Duration(rec.ProfileMS * float64(time.Millisecond))
		steps += rec.Steps
		failures += rec.PowerFailures
	}
	fmt.Fprintf(w, "run report: %d cells (%d completed, %d correct) in %v wall\n",
		len(recs), completed, correct, time.Since(r.started).Round(time.Millisecond))
	fmt.Fprintf(w, "  cell time: profile %v, apply %v, emulate %v (sum %v across %d workers)\n",
		profile.Round(time.Millisecond), apply.Round(time.Millisecond),
		emulate.Round(time.Millisecond), wall.Round(time.Millisecond), h.jobs())
	fmt.Fprintf(w, "  emulator: %d steps, %d power failures\n", steps, failures)
	cs := h.CacheStats()
	fmt.Fprintf(w, "  caches: profiles %d/%d hit, refs %d/%d hit, cell-refs %d/%d hit\n",
		cs.ProfileHits, cs.ProfileHits+cs.ProfileMisses,
		cs.RefHits, cs.RefHits+cs.RefMisses,
		cs.CellRefHits, cs.CellRefHits+cs.CellRefMisses)
}
