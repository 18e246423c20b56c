// Package baselines holds the common interface and shared transformation
// helpers of the four reference techniques the paper compares SCHEMATIC
// against (IV-A-b): RATCHET, MEMENTOS, ROCKCLIMB, and ALFRED. (The All-NVM
// ablation of Fig. 7 is a SCHEMATIC configuration, bench.AllNVMTechnique.)
// Each technique lives in its own subpackage and transforms a module on
// the same IR and emulator substrate, mirroring how the paper
// re-implemented every baseline inside ScEpTIC for a fair comparison.
package baselines

import (
	"sort"

	"schematic/internal/cfg"
	"schematic/internal/energy"
	"schematic/internal/ir"
	"schematic/internal/trace"
)

// Params carries the platform description every technique receives.
type Params struct {
	Model  *energy.Model
	Budget float64 // EB in nJ
	VMSize int     // SVM in bytes
	// Profile is optional; techniques that need loop bounds use it as a
	// fallback for missing @max annotations.
	Profile *trace.Profile
}

// Technique is a checkpoint-placement/memory-allocation scheme.
type Technique interface {
	// Name returns the display name used in tables.
	Name() string
	// SupportsVM reports whether the technique can run the program within
	// the given VM size at all (Table I).
	SupportsVM(m *ir.Module, vmSize int) bool
	// Apply transforms the module in place.
	Apply(m *ir.Module, p Params) error
}

// AllVars lists every variable of the module (globals and all locals),
// sorted by name.
func AllVars(m *ir.Module) []*ir.Var {
	var vs []*ir.Var
	vs = append(vs, m.Globals...)
	for _, f := range m.Funcs {
		vs = append(vs, f.Locals...)
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i].Name < vs[j].Name })
	return vs
}

// AllocAllVM places every variable of the module in VM in every block —
// the working-memory model of MEMENTOS and ALFRED. Each function's blocks
// share one map holding the globals plus that function's own locals.
func AllocAllVM(m *ir.Module) {
	for _, f := range m.Funcs {
		alloc := map[*ir.Var]bool{}
		for _, v := range m.Globals {
			if !v.AddrUsed {
				alloc[v] = true
			}
		}
		for _, v := range f.Locals {
			if !v.AddrUsed {
				alloc[v] = true
			}
		}
		for _, b := range f.Blocks {
			b.Alloc = alloc
		}
	}
}

// LatchBlocks returns the loop latch blocks of a function — the checkpoint
// locations of the MEMENTOS placement the paper reuses for MEMENTOS and
// ALFRED ("we placed checkpoints on loop latches", IV-A-b).
func LatchBlocks(f *ir.Func) []*ir.Block {
	dom := cfg.Dominators(f)
	lf := cfg.Loops(f, dom)
	var out []*ir.Block
	seen := map[*ir.Block]bool{}
	for _, l := range lf.All {
		for _, latch := range l.Latches {
			if !seen[latch] {
				seen[latch] = true
				out = append(out, latch)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out
}

// InsertBeforeTerminator places an instruction at the end of a block, just
// before its terminator.
func InsertBeforeTerminator(b *ir.Block, in ir.Instr) {
	t := b.Instrs[len(b.Instrs)-1]
	b.Instrs = append(append(b.Instrs[:len(b.Instrs)-1:len(b.Instrs)-1], in), t)
}

// InsertAtTop places an instruction at the start of a block, after any
// LoopBound metadata.
func InsertAtTop(b *ir.Block, in ir.Instr) {
	i := 0
	for i < len(b.Instrs) {
		if _, ok := b.Instrs[i].(*ir.LoopBound); ok {
			i++
			continue
		}
		break
	}
	rest := append([]ir.Instr{in}, b.Instrs[i:]...)
	b.Instrs = append(b.Instrs[:i:i], rest...)
}

// BootCheckpoint inserts the initial checkpoint at main's entry: the first
// recovery point, whose Restore list models the boot-time copy of
// initialized data into VM (crt0-style) for VM-resident variables.
func BootCheckpoint(m *ir.Module, kind ir.CheckpointKind, id int, lazy bool) *ir.Checkpoint {
	mainF := m.FuncByName("main")
	entry := mainF.Entry()
	var restore []*ir.Var
	for _, v := range AllVars(m) {
		if entry.InVM(v) {
			restore = append(restore, v)
		}
	}
	ck := &ir.Checkpoint{ID: id, Kind: kind, Restore: restore, SaveAll: true, Lazy: lazy}
	if len(restore) == 0 {
		ck.RegsOnly = true
	}
	InsertAtTop(entry, ck)
	return ck
}

// DataBytes re-exports ir.DataBytes for convenience in Table I checks.
func DataBytes(m *ir.Module) int { return ir.DataBytes(m) }

// WorstIterationEnergy estimates the worst-case energy of one iteration of
// a natural loop under an all-NVM allocation: the longest path from header
// to latch plus the back-edge, with callee costs folded in via summary.
func WorstIterationEnergy(model *energy.Model, l *cfg.Loop, calleeCost func(*ir.Func) float64) float64 {
	// Longest path over the loop's DAG (back-edges removed): simple
	// memoized DFS from the header.
	memo := map[*ir.Block]float64{}
	var worst func(b *ir.Block) float64
	worst = func(b *ir.Block) float64 {
		if v, ok := memo[b]; ok {
			return v
		}
		memo[b] = 0 // cycle guard (inner back-edges)
		cost := BlockEnergyNVM(model, b, calleeCost)
		best := 0.0
		for _, s := range b.Succs() {
			if !l.Contains(s) || s == l.Header {
				continue
			}
			if c := worst(s); c > best {
				best = c
			}
		}
		memo[b] = cost + best
		return memo[b]
	}
	return worst(l.Header)
}

// BlockEnergyNVM is the energy of one execution of b with all data in NVM,
// with callee costs added via the supplied summary function.
func BlockEnergyNVM(model *energy.Model, b *ir.Block, calleeCost func(*ir.Func) float64) float64 {
	e := 0.0
	for _, in := range b.Instrs {
		e += model.InstrEnergy(in, ir.NVM)
		if call, ok := in.(*ir.Call); ok && calleeCost != nil {
			e += calleeCost(call.Callee)
		}
	}
	return e
}
