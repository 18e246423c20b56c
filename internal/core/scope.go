package schematic

import (
	"fmt"
	"sort"

	"schematic/internal/ir"
)

// edgeFreq supplies profiled edge frequencies for path prioritization.
func (a *analyzer) edgeFreq(e ir.Edge) int64 {
	if a.conf.Profile == nil {
		return 1
	}
	return a.conf.Profile.EdgeFreq(a.fs.f, e)
}

// analyzeScope runs the path-by-path analysis of III-A over one scope.
func (a *analyzer) analyzeScope(sg *scopeGraph) error {
	a.stats.ScopesAnalyzed++
	paths := sg.enumeratePaths(a.edgeFreq)
	for _, p := range paths {
		if !sg.containsUnanalyzed(p) {
			continue
		}
		a.stats.PathsAnalyzed++
		if err := a.analyzePath(sg, p); err != nil {
			return err
		}
		// "The energy left and energy to leave are recomputed and
		// propagated after each new path analysis" (III-A3).
		a.recomputeBookkeeping(sg)
	}
	// Safety net: blocks missed by capped enumeration or unreachable in
	// the reduced graph are pinned to NVM with checkpoints on their
	// boundary edges, which is always safe after block splitting.
	for b := range sg.blocks {
		n := sg.nodeOf[b]
		if !n.plain() || a.fs.analyzed[b] {
			continue
		}
		a.fs.analyzed[b] = true
		a.fs.alloc[b] = allocMap{}
		for _, se := range sg.succs(n) {
			if se.to != nil && a.fs.ckAt(se.edge) == nil {
				a.fs.enable(se.edge, allocMap{}, a.allocOfBlock(se.edge.To), 0)
			}
		}
		for _, p := range b.Preds() {
			e := ir.Edge{From: p, To: b}
			if !sg.exclude[e] && sg.blocks[p] && a.fs.ckAt(e) == nil {
				a.fs.enable(e, a.allocOfBlock(p), allocMap{}, 0)
			}
		}
	}
	a.recomputeBookkeeping(sg)
	// Paths whose blocks were all analyzed earlier are skipped, so a CFG
	// edge may join two analyzed regions without ever being part of an
	// analyzed consecutive pair. Enforce the Eleft ≥ Eto_enter invariant on
	// every in-scope edge, checkpointing the violating ones (a conservative
	// replenishment point, in the spirit of III-A3's inheritance rules).
	if err := a.enforceEdgeInvariant(sg); err != nil {
		return err
	}
	return nil
}

// enforceEdgeInvariant repeatedly finds an edge whose source cannot
// guarantee the energy its target needs to reach the next checkpoint, and
// enables a checkpoint there. Terminates because every round adds one
// checkpoint and checkpointed edges always satisfy the invariant.
func (a *analyzer) enforceEdgeInvariant(sg *scopeGraph) error {
	fs := a.fs
	for round := 0; ; round++ {
		if round > 4*len(fs.f.Blocks)+16 {
			return fmt.Errorf("schematic: func %s: edge invariant did not converge", fs.f.Name)
		}
		var fixed bool
		for b := range sg.blocks {
			n := sg.nodeOf[b]
			if n.rep != b { // visit each node once, via its representative
				continue
			}
			var have float64
			if !n.plain() && n.unit.checkpointed {
				have = n.unit.exitLeft
			} else {
				have = fs.eleft[n.rep]
			}
			for _, se := range sg.succs(n) {
				if se.to == nil || fs.ckAt(se.edge) != nil {
					continue
				}
				need, _ := a.etoEnterNode(se.to)
				if have+1e-6 >= need {
					continue
				}
				if se.edge.From.Atomic && se.edge.To.Atomic {
					return fmt.Errorf("schematic: func %s: atomic section around %v exceeds the energy budget",
						fs.f.Name, se.edge)
				}
				// The edge cannot carry enough energy: replenish here.
				if a.conf.Budget-a.model.RestoreRegsCost() < need {
					return fmt.Errorf("schematic: func %s: edge %v needs %0.1f nJ, beyond a full capacitor",
						fs.f.Name, se.edge, need)
				}
				fs.enable(se.edge, a.allocOfBlock(se.edge.From), a.restoreAllocFor(se.edge.To), 0)
				a.stats.Checkpoints++
				fixed = true
			}
		}
		if !fixed {
			if debugRCG && fs.f.Name == "main" {
				for _, b := range fs.f.Blocks {
					if fs.analyzed[b] {
						fmt.Printf("pass-eleft: %s.%s eleft=%.1f etoLeave=%.1f\n",
							fs.f.Name, b.Name, fs.eleft[b], fs.etoLeave[b])
					}
				}
			}
			return nil
		}
		a.recomputeBookkeeping(sg)
	}
}

func (a *analyzer) allocOfBlock(b *ir.Block) allocMap {
	if al := a.fs.alloc[b]; al != nil {
		return al
	}
	return allocMap{}
}

// analyzePath splits a path into segments of unanalyzed nodes and solves
// each with an RCG (III-A1), inheriting boundary conditions from the
// already-analyzed neighbours (III-A3).
func (a *analyzer) analyzePath(sg *scopeGraph, p *pathT) error {
	fs := a.fs
	var seg *segment
	var segStartIdx int

	flush := func(endIdx int, endEdge *ir.Edge, endRequired float64, forcedEnd allocMap) error {
		if seg == nil {
			return nil
		}
		seg.endEdge = endEdge
		seg.endRequired = endRequired
		seg.forcedEnd = forcedEnd
		pl, err := a.solveSegment(seg)
		if err != nil {
			return err
		}
		a.materialize(sg, seg, pl, segStartIdx == 0)
		seg = nil
		return nil
	}

	for i, s := range p.steps {
		analyzedPlain := s.n.plain() && fs.analyzed[s.n.rep]
		if analyzedPlain {
			if seg != nil {
				e := s.inEdge
				req, ferr := a.etoEnterNode(s.n)
				if err := flush(i, &e, req, ferr); err != nil {
					return err
				}
			}
			continue
		}
		if seg == nil {
			seg = &segment{}
			segStartIdx = i
			if i == 0 {
				seg.startCk = sg.entryHasCk
				seg.startBudget = sg.startBudget
				seg.forcedStart = sg.entryAlloc
			} else {
				prev := p.steps[i-1]
				e := s.inEdge
				seg.startEdge = &e
				if prev.n.plain() {
					seg.startBudget = fs.eleft[prev.n.rep]
					seg.forcedStart = a.allocOfBlock(prev.n.rep)
				} else {
					u := prev.n.unit
					if u.checkpointed {
						seg.startBudget = u.exitLeft
					} else {
						seg.startBudget = fs.eleft[u.rep]
					}
					seg.forcedStart = allocMap(varSet(u.exitVM))
				}
			}
		}
		seg.steps = append(seg.steps, s)
	}
	// Trailing segment ends at the scope exit.
	return flush(len(p.steps), p.exitEdge, sg.exitReq, sg.exitAlloc)
}

// etoEnterNode is the energy needed when entering an analyzed node to
// reach the next enabled checkpoint (or satisfy the scope exit), plus the
// allocation imposed there.
func (a *analyzer) etoEnterNode(n *node) (float64, allocMap) {
	fs := a.fs
	if !n.plain() {
		u := n.unit
		if u.checkpointed {
			return u.entry, allocMap(varSet(u.entryVM))
		}
		return u.energy + fs.etoLeave[u.rep], allocMap(varSet(u.entryVM))
	}
	b := n.rep
	return a.execCost(b, fs.alloc[b]) + fs.etoLeave[b], a.allocOfBlock(b)
}

// materialize applies a solved segment: allocations are attached to the
// interval blocks (decisions are final, III-A3), and the selected
// checkpoint locations are enabled.
func (a *analyzer) materialize(sg *scopeGraph, seg *segment, pl *placement, atScopeEntry bool) {
	fs := a.fs
	for k, iv := range pl.intervals {
		for _, s := range iv.steps {
			if s.n.plain() && !fs.analyzed[s.n.rep] {
				fs.alloc[s.n.rep] = iv.alloc
				fs.analyzed[s.n.rep] = true
			}
		}
		// Enable the checkpoint at this interval's start, if it is a
		// candidate location.
		if iv.startCk && iv.startEdge != nil {
			pre := seg.forcedStart
			if k > 0 {
				pre = pl.intervals[k-1].alloc
			}
			if pre == nil {
				pre = allocMap{}
			}
			if fs.ckAt(*iv.startEdge) == nil {
				fs.enable(*iv.startEdge, pre, iv.alloc, 0)
				a.stats.Checkpoints++
			}
		}
	}
	if len(pl.intervals) > 0 {
		if atScopeEntry && sg.entryAlloc == nil {
			sg.entryAlloc = pl.intervals[0].alloc
		}
		last := pl.intervals[len(pl.intervals)-1]
		if !last.endCk && seg.forcedEnd == nil && seg.endEdge == nil && sg.exitAlloc == nil {
			sg.exitAlloc = last.alloc
		}
	}
}

// recomputeBookkeeping refreshes the Eleft and Eto_leave values of every
// analyzed node in the scope (III-A3: "recomputed and propagated after
// each new path analysis").
func (a *analyzer) recomputeBookkeeping(sg *scopeGraph) {
	fs := a.fs
	order := a.scopeTopo(sg)

	nodeAnalyzed := func(n *node) bool {
		if !n.plain() {
			return true
		}
		return fs.analyzed[n.rep]
	}
	cost := func(n *node) float64 {
		if !n.plain() {
			return n.unit.energy // plain units; checkpointed handled apart
		}
		return a.execCost(n.rep, fs.alloc[n.rep])
	}

	// Forward pass: energy available entering / leaving each node.
	ein := map[*node]float64{}
	for _, n := range order {
		if !nodeAnalyzed(n) {
			continue
		}
		in := -1.0
		if n == sg.entry {
			if sg.entryHasCk {
				in = a.conf.Budget - a.restoreSetCost(a.nodeEntryAlloc(n), a.liveAt(nil, n.rep))
			} else {
				in = sg.startBudget
			}
		}
		for _, pe := range a.scopePreds(sg, n) {
			if !nodeAnalyzed(pe.from) {
				continue
			}
			var arr float64
			if ck := fs.ckAt(pe.edge); ck != nil {
				arr = a.conf.Budget - a.restoreSetCost(ck.postAlloc, a.liveAt(&pe.edge, nil))
			} else if !pe.from.plain() && pe.from.unit.checkpointed {
				arr = pe.from.unit.exitLeft
			} else {
				arr = ein[pe.from] - cost(pe.from)
			}
			if in < 0 || arr < in {
				in = arr
			}
		}
		if in < 0 {
			in = sg.startBudget
		}
		ein[n] = in
		if !n.plain() && n.unit.checkpointed {
			fs.eleft[n.rep] = n.unit.exitLeft
		} else {
			fs.eleft[n.rep] = in - cost(n)
		}
	}

	// Backward pass: energy needed when leaving each node.
	for i := len(order) - 1; i >= 0; i-- {
		n := order[i]
		if !nodeAnalyzed(n) {
			continue
		}
		out := 0.0
		any := false
		for _, se := range sg.succs(n) {
			var need float64
			if ck := fs.ckAt(se.edge); ck != nil {
				need = a.saveSetCost(ck.preAlloc, a.liveAt(&se.edge, nil))
			} else if se.to == nil {
				need = sg.exitReq
			} else if !nodeAnalyzed(se.to) {
				continue
			} else if !se.to.plain() && se.to.unit.checkpointed {
				need = se.to.unit.entry
			} else {
				need = cost(se.to) + fs.etoLeave[se.to.rep]
			}
			if !any || need > out {
				out = need
				any = true
			}
		}
		// A node with no in-scope successors ends the scope (a return
		// block, or a loop latch whose back-edge is excluded): it must
		// leave the scope's exit requirement — e.g. the save cost of the
		// back-edge checkpoint that Algorithm 1 will place.
		if !any {
			out = sg.exitReq
		}
		fs.etoLeave[n.rep] = out
	}
}

// nodeEntryAlloc returns the allocation in force when a node begins.
func (a *analyzer) nodeEntryAlloc(n *node) allocMap {
	if !n.plain() {
		return allocMap(varSet(n.unit.entryVM))
	}
	return a.allocOfBlock(n.rep)
}

type predEdge struct {
	from *node
	edge ir.Edge
}

// scopePreds lists a node's in-scope predecessors.
func (a *analyzer) scopePreds(sg *scopeGraph, n *node) []predEdge {
	var out []predEdge
	for b := range sg.blocks {
		from := sg.nodeOf[b]
		if from == n {
			continue
		}
		for _, se := range sg.succs(from) {
			if se.to == n {
				out = append(out, predEdge{from: from, edge: se.edge})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].edge.From.Index != out[j].edge.From.Index {
			return out[i].edge.From.Index < out[j].edge.From.Index
		}
		return out[i].edge.To.Index < out[j].edge.To.Index
	})
	return out
}

// scopeTopo orders the scope's reachable nodes topologically (the scope
// graph is a DAG once back-edges are excluded).
func (a *analyzer) scopeTopo(sg *scopeGraph) []*node {
	var order []*node
	state := map[*node]int{}
	var visit func(n *node)
	visit = func(n *node) {
		state[n] = 1
		for _, se := range sg.succs(n) {
			if se.to != nil && state[se.to] == 0 {
				visit(se.to)
			}
		}
		state[n] = 2
		order = append(order, n)
	}
	visit(sg.entry)
	// Reverse postorder.
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	return order
}
