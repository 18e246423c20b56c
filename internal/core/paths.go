package schematic

import (
	"sort"

	"schematic/internal/ir"
)

// node is a vertex of a scope's reduced graph: a plain block, or a
// collapsed unit (an analyzed loop, or an isolated checkpointed call).
type node struct {
	rep  *ir.Block
	unit *unit // nil for plain blocks
}

func (n *node) plain() bool { return n.unit == nil }

// covers returns the CFG blocks the node stands for.
func (n *node) covers() map[*ir.Block]bool {
	if n.unit != nil {
		return n.unit.blocks
	}
	return map[*ir.Block]bool{n.rep: true}
}

// step is one element of a path: the node plus the concrete CFG edge that
// entered it (absent for the first step of a scope path).
type step struct {
	n      *node
	inEdge ir.Edge
	hasIn  bool
}

// pathT is an enumerated acyclic path through a scope.
type pathT struct {
	steps []step
	// exitEdge is the concrete CFG edge leaving the scope at the end of
	// the path; nil when the path ends at a return block.
	exitEdge *ir.Edge
	freq     int64
}

// scopeGraph is the reduced view of one analysis scope: a loop body
// without its back-edge, or a function's top level with loops collapsed.
type scopeGraph struct {
	fs      *funcState
	entry   *node
	blocks  map[*ir.Block]bool // all covered CFG blocks
	nodeOf  map[*ir.Block]*node
	exclude map[ir.Edge]bool

	startBudget float64
	exitReq     float64
	// entryAlloc/exitAlloc are the canonical boundary allocations, fixed by
	// the first path decision (the paper imposes a single exit allocation,
	// III-B1); nil until decided.
	entryAlloc allocMap
	exitAlloc  allocMap
	// entryHasCk marks scopes whose entry is preceded by a checkpoint
	// (main's boot checkpoint), letting the first interval choose its
	// allocation freely.
	entryHasCk bool
}

// buildScope constructs the reduced graph over the given blocks, with the
// listed units collapsed and the given edges (back-edges) excluded.
func buildScope(fs *funcState, entry *ir.Block, blocks map[*ir.Block]bool,
	units []*unit, exclude map[ir.Edge]bool) *scopeGraph {
	sg := &scopeGraph{
		fs:      fs,
		blocks:  blocks,
		nodeOf:  map[*ir.Block]*node{},
		exclude: exclude,
	}
	covered := map[*ir.Block]*node{}
	for _, u := range units {
		un := &node{rep: u.rep, unit: u}
		for b := range u.blocks {
			covered[b] = un
		}
	}
	for b := range blocks {
		if un, ok := covered[b]; ok {
			sg.nodeOf[b] = un
			continue
		}
		sg.nodeOf[b] = &node{rep: b}
	}
	sg.entry = sg.nodeOf[entry]
	return sg
}

// succEdge is an outgoing connection of a node.
type succEdge struct {
	edge ir.Edge
	to   *node // nil when the edge leaves the scope
}

// succs lists a node's outgoing edges in deterministic order, skipping
// unit-internal and excluded edges.
func (sg *scopeGraph) succs(n *node) []succEdge {
	var srcs []*ir.Block
	for b := range n.covers() {
		srcs = append(srcs, b)
	}
	sort.Slice(srcs, func(i, j int) bool { return srcs[i].Index < srcs[j].Index })
	var out []succEdge
	for _, b := range srcs {
		for _, s := range b.Succs() {
			e := ir.Edge{From: b, To: s}
			if sg.exclude[e] || n.covers()[s] {
				continue
			}
			if !sg.blocks[s] {
				out = append(out, succEdge{edge: e})
				continue
			}
			out = append(out, succEdge{edge: e, to: sg.nodeOf[s]})
		}
	}
	return out
}

// maxPaths caps path enumeration per scope. Blocks a capped enumeration
// misses are pinned to NVM behind checkpoints (see analyzeScope), which
// is always safe, so the cap trades placement quality on huge scopes for
// analysis time and never correctness.
const maxPaths = 2048

// enumeratePaths lists the acyclic paths of the scope from its entry to
// its exits, capped at maxPaths, sorted by profiled frequency (descending,
// never-executed last — paper III-A3). freq supplies edge traversal
// counts; nil makes all paths equal.
func (sg *scopeGraph) enumeratePaths(freq func(ir.Edge) int64) []*pathT {
	var paths []*pathT
	var cur []step
	onPath := map[*node]bool{}

	var rec func(s step)
	rec = func(s step) {
		if len(paths) >= maxPaths {
			return
		}
		cur = append(cur, s)
		onPath[s.n] = true
		defer func() {
			cur = cur[:len(cur)-1]
			delete(onPath, s.n)
		}()

		n := s.n
		ss := sg.succs(n)
		inScope := 0
		for _, se := range ss {
			if se.to != nil {
				inScope++
			}
		}
		_, isRet := n.rep.Terminator().(*ir.Ret)
		endsHere := inScope == 0 || (isRet && n.plain()) || len(ss) > inScope
		if endsHere {
			p := &pathT{steps: append([]step(nil), cur...)}
			for _, se := range ss {
				if se.to == nil {
					e := se.edge
					p.exitEdge = &e
					break
				}
			}
			paths = append(paths, p)
		}
		for _, se := range ss {
			if se.to == nil || onPath[se.to] {
				continue
			}
			if len(paths) >= maxPaths {
				return
			}
			rec(step{n: se.to, inEdge: se.edge, hasIn: true})
		}
	}
	rec(step{n: sg.entry})

	for _, p := range paths {
		p.freq = pathFreq(p, freq)
	}
	sort.SliceStable(paths, func(i, j int) bool { return paths[i].freq > paths[j].freq })
	return paths
}

func pathFreq(p *pathT, freq func(ir.Edge) int64) int64 {
	if freq == nil {
		return 1
	}
	min := int64(-1)
	for _, s := range p.steps {
		if !s.hasIn {
			continue
		}
		f := freq(s.inEdge)
		if min == -1 || f < min {
			min = f
		}
	}
	if min == -1 {
		return 1
	}
	return min
}

// containsUnanalyzed reports whether the path still has work to do.
func (sg *scopeGraph) containsUnanalyzed(p *pathT) bool {
	for _, s := range p.steps {
		if s.n.plain() && !sg.fs.analyzed[s.n.rep] {
			return true
		}
	}
	return false
}
