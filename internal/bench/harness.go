package bench

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"schematic/internal/baselines"
	"schematic/internal/baselines/alfred"
	"schematic/internal/baselines/allnvm"
	"schematic/internal/baselines/mementos"
	"schematic/internal/baselines/ratchet"
	"schematic/internal/baselines/rockclimb"
	schematic "schematic/internal/core"
	"schematic/internal/emulator"
	"schematic/internal/energy"
	"schematic/internal/flight"
	"schematic/internal/ir"
	"schematic/internal/obs"
	"schematic/internal/trace"
)

// Schematic wraps the core pass as a baselines.Technique so the harness
// can iterate over all five techniques uniformly.
type Schematic struct{}

// Name implements baselines.Technique.
func (Schematic) Name() string { return "Schematic" }

// SupportsVM implements baselines.Technique: SCHEMATIC adapts to any SVM
// (Table I's headline property).
func (Schematic) SupportsVM(*ir.Module, int) bool { return true }

// Apply implements baselines.Technique.
func (Schematic) Apply(m *ir.Module, p baselines.Params) error {
	_, err := schematic.Apply(m, schematic.Config{
		Model:   p.Model,
		Budget:  p.Budget,
		VMSize:  p.VMSize,
		Profile: p.Profile,
	})
	return err
}

// Techniques returns the five techniques in the paper's column order.
func Techniques() []baselines.Technique {
	return []baselines.Technique{
		ratchet.Ratchet{},
		mementos.Mementos{},
		rockclimb.Rockclimb{},
		alfred.Alfred{},
		Schematic{},
	}
}

// AllNVMTechnique returns the Fig. 7 ablation.
func AllNVMTechnique() baselines.Technique { return allnvm.AllNVM{} }

// TechniqueByName resolves the five techniques and the All-NVM ablation
// by display name, as repro files store it ("Ratchet", "All-NVM"), or by
// that name lowercased without hyphens, as the CLIs and the API take it
// ("ratchet", "allnvm"). It is the one name→technique lookup.
func TechniqueByName(name string) (baselines.Technique, error) {
	for _, t := range append(Techniques(), AllNVMTechnique()) {
		if name == t.Name() || name == strings.ToLower(strings.ReplaceAll(t.Name(), "-", "")) {
			return t, nil
		}
	}
	return nil, fmt.Errorf("unknown technique %q", name)
}

// TBPFs are the time-between-power-failures values of the evaluation
// (IV-C), in cycles.
var TBPFs = []int64{1_000, 10_000, 100_000}

// profileKey identifies a cached profile. Every parameter that influences
// trace.Collect participates, so changing ProfileRuns, Seed or Model on
// the harness transparently recomputes instead of returning stale data.
type profileKey struct {
	bench string
	runs  int
	seed  int64
	model *energy.Model
}

// refKey identifies a cached continuous-power reference run. The
// reference depends on the inputs (Seed) and the energy model, but not on
// VMSize or ProfileRuns.
type refKey struct {
	bench string
	seed  int64
	model *energy.Model
}

// CacheStats counts harness cache traffic; useful both for the run report
// and for regression tests that assert work is not silently reused (or
// silently duplicated).
type CacheStats struct {
	ProfileHits, ProfileMisses int64
	RefHits, RefMisses         int64
	CellRefHits, CellRefMisses int64
}

// Harness runs the paper's experiments on the benchmark suite.
//
// Concurrency contract: a Harness is safe for concurrent use by multiple
// goroutines once configured. The configuration fields (Model, VMSize,
// ProfileRuns, Seed, Jobs) are read without synchronization by Run and
// the experiment drivers, so set them before the first Run/experiment
// call and do not mutate them while runs are in flight. Changing them
// between (sequential) runs is supported: caches are keyed by the
// parameters they depend on, so a change never yields stale results.
type Harness struct {
	Model       *energy.Model
	VMSize      int // SVM: 2 KB on the MSP430FR5969
	ProfileRuns int // profiling executions per benchmark (the paper: 1000)
	Seed        int64

	// Jobs is the worker count for the experiment grids (Table III, the
	// figures, the ablations). Zero or negative selects runtime.NumCPU().
	// Jobs == 1 reproduces the sequential execution order exactly.
	Jobs int

	// CollectSites attaches an obs.Collector to every cell's intermittent
	// run: per-checkpoint-site attribution is reconciled against the
	// cell's energy ledger (a mismatch fails the cell) and the hottest
	// sites land in TechRun.HotSites / the run-report records.
	CollectSites bool

	// CellObserver, when non-nil, supplies an extra emulator.Observer for
	// each cell's intermittent run. Cells run concurrently (see Jobs), so
	// either return a fresh observer per call or one that is safe for
	// concurrent use. Like the other configuration fields it must be set
	// before the first Run.
	CellObserver func(bench, technique string, tbpf int64) emulator.Observer

	profiles *flight.Cache[profileKey, *trace.Profile]
	refs     *flight.Cache[refKey, *emulator.Result] // all-data-in-VM references (Table II)
	cellRefs *flight.Cache[refKey, *emulator.Result] // untransformed correctness references

	mu     sync.Mutex // guards report
	report *RunReport
}

// cacheCap bounds each harness cache. A full suite at one configuration
// fills 10 entries per cache; the rest leaves room for changing Seed,
// ProfileRuns or Model between runs before the least recently used
// entry is dropped.
const cacheCap = 64

// NewHarness builds a harness with the paper's platform defaults.
func NewHarness() *Harness {
	return &Harness{
		Model:       energy.MSP430FR5969(),
		VMSize:      2048,
		ProfileRuns: 50,
		Seed:        1,
		profiles:    flight.New[profileKey, *trace.Profile](cacheCap),
		refs:        flight.New[refKey, *emulator.Result](cacheCap),
		cellRefs:    flight.New[refKey, *emulator.Result](cacheCap),
	}
}

// validate rejects a harness whose emulator configuration cannot run,
// so a misconfigured Model or VMSize fails at the entry point with a
// typed emulator.ConfigError instead of surfacing deep inside profiling
// or a mid-grid cell.
func (h *Harness) validate() error {
	return emulator.Config{Model: h.Model, VMSize: h.VMSize}.Validate()
}

// CacheStats returns a snapshot of the cache hit/miss counters. A hit
// is a completed entry or a joined in-flight one.
func (h *Harness) CacheStats() CacheStats {
	p, r, c := h.profiles.Stats(), h.refs.Stats(), h.cellRefs.Stats()
	return CacheStats{
		ProfileHits: p.Hits + p.Coalesced, ProfileMisses: p.Misses,
		RefHits: r.Hits + r.Coalesced, RefMisses: r.Misses,
		CellRefHits: c.Hits + c.Coalesced, CellRefMisses: c.Misses,
	}
}

// Profile returns the benchmark's execution profile, computed at most
// once per (benchmark, ProfileRuns, Seed, Model) configuration. The
// context gates admission: a done context returns its error without
// touching the cache, and a caller that finds the profile in flight
// stops waiting when its context ends (the computation still completes
// for the other callers).
func (h *Harness) Profile(ctx context.Context, b *Benchmark) (*trace.Profile, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := h.validate(); err != nil {
		return nil, err
	}
	key := profileKey{bench: b.Name, runs: h.ProfileRuns, seed: h.Seed, model: h.Model}
	return h.profiles.Do(ctx, key, func() (*trace.Profile, error) {
		m, err := b.Module()
		if err != nil {
			return nil, err
		}
		p, err := trace.Collect(m, trace.Options{Runs: key.runs, Seed: key.seed, Model: key.model})
		if err != nil {
			return nil, fmt.Errorf("profile %s: %w", b.Name, err)
		}
		return p, nil
	})
}

// ReferenceAllVM runs the untransformed benchmark on continuous power with
// all data in VM — the execution-time reference of Table II ("in clock
// cycles, with all data in VM"). Computed at most once per (benchmark,
// Seed, Model) configuration; the context works as in Profile.
func (h *Harness) ReferenceAllVM(ctx context.Context, b *Benchmark) (*emulator.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	key := refKey{bench: b.Name, seed: h.Seed, model: h.Model}
	return h.refs.Do(ctx, key, func() (*emulator.Result, error) {
		m, err := b.Module()
		if err != nil {
			return nil, err
		}
		clone := ir.Clone(m)
		baselines.AllocAllVM(clone)
		inputs, err := b.Inputs(key.seed)
		if err != nil {
			return nil, err
		}
		// PrewarmVM: the untransformed module has no checkpoints to
		// restore the VM-allocated data, so the boot copy is assumed done
		// before measurement starts (the paper measures "with all data in
		// VM", not the cost of getting it there).
		res, err := emulator.Run(clone, emulator.Config{Model: key.model, Inputs: inputs, PrewarmVM: true})
		if err != nil {
			return nil, err
		}
		if res.Verdict != emulator.Completed {
			return nil, fmt.Errorf("reference %s: %v", b.Name, res.Verdict)
		}
		if res.UnsyncedReads > 0 {
			return nil, fmt.Errorf("reference %s: %d unsynced VM reads", b.Name, res.UnsyncedReads)
		}
		return res, nil
	})
}

// referenceOutput runs the untransformed benchmark on continuous power
// with its as-compiled allocation — the correctness reference each
// experiment cell compares against. It is computed once per (benchmark,
// Seed, Model) and shared across all (technique, TBPF) cells; the
// returned Result is immutable. The context works as in Profile.
func (h *Harness) referenceOutput(ctx context.Context, b *Benchmark) (*emulator.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	key := refKey{bench: b.Name, seed: h.Seed, model: h.Model}
	return h.cellRefs.Do(ctx, key, func() (*emulator.Result, error) {
		m, err := b.Module()
		if err != nil {
			return nil, err
		}
		inputs, err := b.Inputs(key.seed)
		if err != nil {
			return nil, err
		}
		return emulator.Run(m, emulator.Config{Model: key.model, Inputs: inputs})
	})
}

// CellStats records the per-cell observability of one Run: wall time and
// the phase split between profiling (zero on a cache hit), applying the
// transformation, and emulating the intermittent execution.
type CellStats struct {
	Wall    time.Duration
	Profile time.Duration
	Apply   time.Duration
	Emulate time.Duration
}

// TechRun is the outcome of one (benchmark, technique, TBPF) cell.
type TechRun struct {
	Bench     string
	Technique string
	TBPF      int64
	EB        float64

	// Supported is the static Table I verdict; when false the run was not
	// attempted.
	Supported bool
	// ApplyErr reports a transformation failure (treated as ✗).
	ApplyErr error
	// Res is the intermittent execution result when the run happened.
	Res *emulator.Result
	// RefOutput is the continuous-power output for correctness checking.
	RefOutput []int64

	// Stats is the per-cell observability record.
	Stats CellStats

	// HotSites is the per-checkpoint-site attribution, hottest first
	// (populated only when Harness.CollectSites is set).
	HotSites []obs.SiteStats
}

// Completed reports whether the cell counts as ✓.
func (tr *TechRun) Completed() bool {
	return tr.Supported && tr.ApplyErr == nil &&
		tr.Res != nil && tr.Res.Verdict == emulator.Completed
}

// Correct reports whether the run produced the reference output.
func (tr *TechRun) Correct() bool {
	if !tr.Completed() || len(tr.Res.Output) != len(tr.RefOutput) {
		return false
	}
	for i := range tr.RefOutput {
		if tr.Res.Output[i] != tr.RefOutput[i] {
			return false
		}
	}
	return true
}

// Run executes one cell: transform with the technique for the EB derived
// from the TBPF, then emulate under intermittent power. Run is safe for
// concurrent use; the profile and the continuous-power reference are
// computed once per configuration and shared across cells. The context
// is checked at each phase boundary (profile, transform, emulate), so a
// cancelled long job returns ctx.Err() promptly instead of running the
// remaining phases.
func (h *Harness) Run(ctx context.Context, b *Benchmark, tech baselines.Technique, tbpf int64) (*TechRun, error) {
	if err := h.validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	m, err := b.Module()
	if err != nil {
		return nil, err
	}
	profStart := time.Now()
	prof, err := h.Profile(ctx, b)
	if err != nil {
		return nil, err
	}
	profDur := time.Since(profStart)
	tr := &TechRun{
		Bench:     b.Name,
		Technique: tech.Name(),
		TBPF:      tbpf,
		EB:        prof.EBForTBPF(tbpf),
		Supported: tech.SupportsVM(m, h.VMSize),
	}
	defer func() { tr.Stats.Wall = time.Since(start); tr.Stats.Profile = profDur }()
	if !tr.Supported {
		return tr, nil
	}
	inputs, err := b.Inputs(h.Seed)
	if err != nil {
		return nil, err
	}
	ref, err := h.referenceOutput(ctx, b)
	if err != nil {
		return nil, err
	}
	tr.RefOutput = ref.Output

	applyStart := time.Now()
	clone := ir.Clone(m)
	if err := tech.Apply(clone, baselines.Params{
		Model:   h.Model,
		Budget:  tr.EB,
		VMSize:  h.VMSize,
		Profile: prof,
	}); err != nil {
		tr.ApplyErr = err
		tr.Stats.Apply = time.Since(applyStart)
		return tr, nil
	}
	tr.Stats.Apply = time.Since(applyStart)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	var col *obs.Collector
	var observers []emulator.Observer
	if h.CollectSites {
		col = obs.NewCollector()
		observers = append(observers, col)
	}
	if h.CellObserver != nil {
		observers = append(observers, h.CellObserver(b.Name, tech.Name(), tbpf))
	}

	emuStart := time.Now()
	res, err := emulator.Run(clone, emulator.Config{
		Model:        h.Model,
		VMSize:       h.VMSize,
		Intermittent: true,
		EB:           tr.EB,
		Inputs:       inputs,
		Observer:     emulator.MultiObserver(observers...),
	})
	if err != nil {
		return nil, fmt.Errorf("%s/%s/TBPF=%d: %w", b.Name, tech.Name(), tbpf, err)
	}
	tr.Stats.Emulate = time.Since(emuStart)
	tr.Res = res
	if col != nil {
		if err := col.Reconcile(res); err != nil {
			return nil, fmt.Errorf("%s/%s/TBPF=%d: %w", b.Name, tech.Name(), tbpf, err)
		}
		tr.HotSites = col.TopSites(5)
	}
	return tr, nil
}
