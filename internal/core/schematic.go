// Package schematic implements the paper's central contribution: joint
// compile-time checkpoint placement and VM/NVM memory allocation for
// intermittent systems (paper, Section III).
//
// # Algorithm outline
//
// Functions are analyzed in reverse topological order of the call graph
// (callees first, III-B1). Within a function, loops are analyzed bottom-up
// (inner first, III-B2); each analyzed loop is then collapsed into a
// single *unit* so the enclosing scope sees it as one node. A scope (a
// loop body without its back-edge, or the function's top level with all
// loops collapsed) is analyzed path by path:
//
//  1. Acyclic paths through the scope's reduced graph are enumerated and
//     sorted by profiled frequency (III-A3); never-executed paths come
//     last, guaranteeing full coverage.
//  2. For each path, the unanalyzed segments form a Reachable Checkpoint
//     Graph (RCG, III-A1): nodes are the potential checkpoint locations
//     (the CFG edges along the path) plus virtual start/end nodes, and an
//     edge (c1,c2) exists when some memory allocation lets execution reach
//     c2 from c1 within the energy budget EB. Edge costs are the energy to
//     restore at c1, execute the interval under its best allocation, and
//     save at c2.
//  3. The per-interval allocation maximizes the total gain of Eq. 1, with
//     the liveness-refined save/restore overhead of Eq. 2, subject to the
//     VM capacity SVM; variables are picked by decreasing gain/size ratio
//     (III-A2).
//  4. Dijkstra's shortest path through the RCG selects the minimal-energy
//     checkpoint placement; those checkpoints are enabled and the chosen
//     allocations attached to the interval blocks. Decisions are final;
//     later paths inherit them through the Eleft / Eto_leave bookkeeping
//     (III-A3).
//
// Loops then follow Algorithm 1: if one iteration needed no internal
// checkpoint and the header and latch allocations agree, a conditional
// back-edge checkpoint firing every numit = ⌊usable/Eloop⌋ iterations is
// inserted — or none at all when numit exceeds the annotated maximum trip
// count.
//
// # Deviations from the paper (documented in DESIGN.md)
//
//   - A loop whose body received internal checkpoints always gets a plain
//     back-edge checkpoint, so every iteration starts from a full
//     capacitor and the single-iteration analysis remains sound.
//   - Intervals surrounding a checkpointed unit (a loop or call with
//     internal checkpoints) pin the variables that are live across the
//     unit but not managed by it to NVM; the unit's own entry/exit
//     allocations are imposed on the neighbouring intervals. This keeps
//     VM residency consistent without interprocedural restore lists.
//   - Pointer-accessed variables are pinned to NVM (paper, IV-A-c); the
//     IR has no address-taken operations, so the flag is an input.
package schematic

import (
	"fmt"
	"time"

	"schematic/internal/cfg"
	"schematic/internal/dataflow"
	"schematic/internal/energy"
	"schematic/internal/ir"
	"schematic/internal/trace"
)

// Config parameterizes the pass.
type Config struct {
	// Model is the worst-case energy model (required).
	Model *energy.Model
	// Budget is EB: the usable energy of a fully charged capacitor, nJ.
	Budget float64
	// VMSize is SVM in bytes.
	VMSize int
	// Profile supplies path frequencies and loop trip estimates; nil makes
	// the analysis purely static (all paths equally frequent).
	Profile *trace.Profile
	// DisableVM turns off VM allocation entirely: the All-NVM ablation of
	// the paper's Fig. 7. Checkpoint placement still runs.
	DisableVM bool
	// RefineRegisterLiveness enables the §VII extension: each materialized
	// checkpoint is annotated with the number of registers live across it,
	// and the runtime saves only those (plus PC/SR) instead of the whole
	// register file. Placement still budgets the full file, so the refined
	// runtime cost is never above the planned one.
	RefineRegisterLiveness bool
	// DisableCondCheckpoints is an ablation: Algorithm 1's conditional
	// scheme is turned off, so every analyzed loop gets a back-edge
	// checkpoint that fires on each iteration (and the trip-bound elision
	// of line 8 never applies).
	DisableCondCheckpoints bool
	// DisableLivenessRefinement is an ablation: the Eq. 2 refinement is
	// turned off, so checkpoints save and restore every allocated variable
	// whether or not it is live, and allocation gains use the unrefined
	// Eq. 1 costs.
	DisableLivenessRefinement bool
}

// Stats reports what the pass did.
type Stats struct {
	Checkpoints     int // enabled checkpoint locations
	CondCheckpoints int // back-edge checkpoints with Every > 1
	PathsAnalyzed   int
	ScopesAnalyzed  int
	VMVars          int // distinct variables placed in VM somewhere
	AnalysisTime    time.Duration
}

// Apply runs SCHEMATIC on the module in place: it decides checkpoint
// placement and memory allocation, sets every block's Alloc map, and
// inserts Checkpoint instructions on the enabled (split) edges. The module
// must not already contain checkpoints.
func Apply(m *ir.Module, conf Config) (*Stats, error) {
	start := time.Now()
	if conf.Model == nil {
		return nil, fmt.Errorf("schematic: Config.Model is required")
	}
	if err := conf.Model.Validate(); err != nil {
		return nil, err
	}
	if conf.Budget <= 0 {
		return nil, fmt.Errorf("schematic: Config.Budget must be positive")
	}
	if conf.VMSize < 0 {
		return nil, fmt.Errorf("schematic: Config.VMSize must be non-negative")
	}
	if len(ir.Checkpoints(m)) != 0 {
		return nil, fmt.Errorf("schematic: module already contains checkpoints")
	}
	if err := ir.Verify(m); err != nil {
		return nil, err
	}

	a := &analyzer{
		mod:       m,
		conf:      conf,
		model:     conf.Model,
		summaries: map[*ir.Func]*funcSummary{},
		stats:     &Stats{},
	}
	cg := cfg.BuildCallGraph(m)
	order, err := cg.ReverseTopo(m)
	if err != nil {
		return nil, err
	}
	a.gu = dataflow.BuildGlobalUse(m)
	for _, f := range order {
		if err := a.analyzeFunc(f); err != nil {
			return nil, err
		}
	}
	if err := a.rewrite(); err != nil {
		return nil, err
	}
	if err := ir.Verify(m); err != nil {
		return nil, fmt.Errorf("schematic: transformed module invalid: %w", err)
	}
	a.stats.AnalysisTime = time.Since(start)
	return a.stats, nil
}

// analyzer carries the whole-module analysis state.
type analyzer struct {
	mod   *ir.Module
	conf  Config
	model *energy.Model
	gu    *dataflow.GlobalUse

	summaries map[*ir.Func]*funcSummary
	stats     *Stats

	// states keeps every function's analysis state for the rewrite phase.
	states map[*ir.Func]*funcState
	// fs is the state of the function currently under analysis.
	fs *funcState
}
