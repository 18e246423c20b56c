// Package trace implements the profiling step of SCHEMATIC (paper,
// III-A3): programs are executed many times with randomly generated inputs
// under the emulator, gathering basic-block and edge execution counts.
// The counts are a native output of the emulator (emulator.Counts), so
// profiling runs take the same batched path as any unobserved run.
// Checkpoint placement uses the counts to prioritize frequently executed
// paths, and the experiment harness uses the measured average energy per
// cycle to convert a time-between-power-failures (TBPF) into the energy
// budget EB (paper, IV-C).
//
// Profiles are keyed by function and block *names*, so a profile collected
// on one module applies to any structurally identical clone of it (the
// usual flow: profile the pristine module once, then transform clones).
package trace

import (
	"fmt"
	"math/rand"
	"time"

	"schematic/internal/emulator"
	"schematic/internal/energy"
	"schematic/internal/ir"
)

// Options configures profiling.
type Options struct {
	// Runs is the number of profiling executions (the paper uses 1000).
	// Zero selects 100, which is plenty for the bundled benchmarks while
	// keeping test time reasonable.
	Runs int
	// Seed makes input generation reproducible.
	Seed int64
	// Model is the energy model; nil selects the MSP430FR5969 default.
	Model *energy.Model
	// MaxSteps bounds each profiling run.
	MaxSteps int64
}

// edgeKey names a CFG edge.
type edgeKey struct {
	From, To string
}

// blockKey names a block within a function.
type blockKey struct {
	Func, Block string
}

// Profile holds the gathered execution statistics. A Profile is
// immutable once Collect returns, so it may be shared across goroutines
// without synchronization.
type Profile struct {
	Runs int
	// Seed is the input-generation seed the profile was collected with.
	Seed int64
	// Elapsed is the wall time Collect spent gathering the profile.
	Elapsed time.Duration

	edgeCount   map[string]map[edgeKey]int64 // by function name
	blockCount  map[blockKey]int64
	invocations map[string]int64

	// AvgEnergyPerCycle is total energy / total cycles across the
	// profiling runs (all data in NVM, continuous power) in nJ/cycle.
	AvgEnergyPerCycle float64
	// AvgCycles and AvgEnergy are per-run averages of the reference runs.
	AvgCycles float64
	AvgEnergy float64

	loopIterEstimate map[blockKey]int

	// Steps is the number of instructions the profiling runs executed;
	// BatchedSteps is how many of them ran on the emulator's batched
	// path.
	Steps        int64
	BatchedSteps int64
}

// RandomInputs generates input data for every input variable of m:
// words drawn uniformly from [0, 2^15).
func RandomInputs(m *ir.Module, r *rand.Rand) map[string][]int64 {
	inputs := map[string][]int64{}
	for _, v := range m.InputVars() {
		data := make([]int64, v.Elems)
		for i := range data {
			data[i] = int64(r.Intn(1 << 15))
		}
		inputs[v.Name] = data
	}
	return inputs
}

// Collect profiles the module. The module must be untransformed (no
// checkpoints); it is executed on continuous power with all data in NVM.
func Collect(m *ir.Module, opts Options) (*Profile, error) {
	if opts.Runs < 0 {
		return nil, fmt.Errorf("trace: Options.Runs must not be negative (0 selects 100), got %d", opts.Runs)
	}
	if opts.Runs == 0 {
		opts.Runs = 100
	}
	model := opts.Model
	if model == nil {
		model = energy.MSP430FR5969()
	}
	start := time.Now()
	p := &Profile{
		Runs:             opts.Runs,
		Seed:             opts.Seed,
		edgeCount:        map[string]map[edgeKey]int64{},
		blockCount:       map[blockKey]int64{},
		invocations:      map[string]int64{},
		loopIterEstimate: map[blockKey]int{},
	}
	rng := rand.New(rand.NewSource(opts.Seed))

	counts := &emulator.Counts{}
	var totalCycles int64
	var totalEnergy float64
	for run := 0; run < opts.Runs; run++ {
		cfgE := emulator.Config{
			Model:    model,
			Inputs:   RandomInputs(m, rng),
			MaxSteps: opts.MaxSteps,
			Counts:   counts,
		}
		res, err := emulator.Run(m, cfgE)
		if err != nil {
			return nil, fmt.Errorf("trace: profiling run %d: %w", run, err)
		}
		if res.Verdict != emulator.Completed {
			return nil, fmt.Errorf("trace: profiling run %d did not complete: %v", run, res.Verdict)
		}
		totalCycles += res.Cycles
		totalEnergy += res.Energy.Total()
	}
	if totalCycles > 0 {
		p.AvgEnergyPerCycle = totalEnergy / float64(totalCycles)
	}
	p.AvgCycles = float64(totalCycles) / float64(opts.Runs)
	p.AvgEnergy = totalEnergy / float64(opts.Runs)
	p.Steps, p.BatchedSteps = counts.Steps(), counts.BatchedSteps()
	p.tally(m, counts)
	p.estimateLoopIters(m)
	p.Elapsed = time.Since(start)
	return p, nil
}

// tally keys the emulator's counts by name. A block executes once per
// entry: an entry block whenever its function is called, any block
// whenever a branch arm into it is taken. Names that repeat add up.
func (p *Profile) tally(m *ir.Module, c *emulator.Counts) {
	for _, f := range m.Funcs {
		edges := map[edgeKey]int64{}
		p.edgeCount[f.Name] = edges
		if n := c.Calls(f); n > 0 {
			p.invocations[f.Name] += n
			p.blockCount[blockKey{f.Name, f.Entry().Name}] += n
		}
		for _, b := range f.Blocks {
			for i, s := range b.Succs() {
				if n := c.Taken(b, i); n > 0 {
					edges[edgeKey{b.Name, s.Name}] += n
					p.blockCount[blockKey{f.Name, s.Name}] += n
				}
			}
		}
	}
}

// estimateLoopIters derives average trip counts from edge counts: for a
// loop with header h, iterations/entry ≈ header executions / entries,
// where entries = header executions − back-edge traversals.
func (p *Profile) estimateLoopIters(m *ir.Module) {
	for _, f := range m.Funcs {
		for _, e := range ir.Edges(f) {
			header := e.To
			key := blockKey{f.Name, header.Name}
			hc := p.blockCount[key]
			bc := p.edgeCount[f.Name][edgeKey{e.From.Name, e.To.Name}]
			if bc == 0 || hc == 0 {
				continue
			}
			entries := hc - bc
			if entries <= 0 {
				continue
			}
			est := int((hc + entries - 1) / entries)
			if est > p.loopIterEstimate[key] {
				p.loopIterEstimate[key] = est
			}
		}
	}
}

// EdgeFreq returns the profiled traversal count of e (by name, so clones
// of the profiled module resolve correctly).
func (p *Profile) EdgeFreq(f *ir.Func, e ir.Edge) int64 {
	return p.edgeCount[f.Name][edgeKey{e.From.Name, e.To.Name}]
}

// BlockFreq returns the profiled execution count of b.
func (p *Profile) BlockFreq(f *ir.Func, b *ir.Block) int64 {
	return p.blockCount[blockKey{f.Name, b.Name}]
}

// Invocations returns how often the function was called across all runs.
func (p *Profile) Invocations(f *ir.Func) int64 { return p.invocations[f.Name] }

// LoopIterEstimate returns the estimated trip count of the loop headed at
// the given block, or 0 when unknown.
func (p *Profile) LoopIterEstimate(header *ir.Block) int {
	if header.Func == nil {
		return 0
	}
	return p.loopIterEstimate[blockKey{header.Func.Name, header.Name}]
}

// EBForTBPF converts a time between power failures (in cycles) into the
// energy budget EB (nJ): "for each value of TBPF we set EB to the average
// amount of energy that is consumed by the platform in the interval"
// (paper, IV-C).
func (p *Profile) EBForTBPF(tbpf int64) float64 {
	return float64(tbpf) * p.AvgEnergyPerCycle
}
