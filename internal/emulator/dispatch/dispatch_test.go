package dispatch

import (
	"testing"
	"unsafe"

	"schematic/internal/energy"
	"schematic/internal/ir"
)

// testModule builds a small two-function module with a VM-allocated
// global, a loop, a conditional checkpoint, and array traffic — enough
// shape to exercise slots, branch targets, costs, and runs.
func testModule(t testing.TB) *ir.Module {
	t.Helper()
	m := &ir.Module{Name: "dispatch-test"}
	acc := m.NewGlobal("acc", 1)
	arr := m.NewGlobal("arr", 4)

	f := m.NewFunc("work", nil, true)
	entry := f.NewBlock("entry")
	head := f.NewBlock("head")
	body := f.NewBlock("body")
	done := f.NewBlock("done")

	b := ir.NewBuilder(f).At(entry)
	zero := b.Const(0)
	b.Store(acc, zero)
	b.Jmp(head)

	b.At(head)
	a := b.Load(acc)
	lim := b.Const(4)
	c := b.Bin(ir.OpLt, a, lim)
	b.Br(c, body, done)

	b.At(body)
	a2 := b.Load(acc)
	el := b.LoadIdx(arr, a2)
	sum := b.Bin(ir.OpAdd, a2, el)
	b.StoreIdx(arr, a2, sum)
	b.Emit(&ir.Checkpoint{ID: 0, Kind: ir.CkRollback, Every: 2,
		Save: []*ir.Var{acc}, Restore: []*ir.Var{acc}})
	one := b.Const(1)
	nxt := b.Bin(ir.OpAdd, a2, one)
	b.Store(acc, nxt)
	b.Jmp(head)

	b.At(done)
	out := b.Load(acc)
	b.RetVal(out)

	for _, blk := range f.Blocks {
		blk.Alloc = map[*ir.Var]bool{acc: true}
	}

	mainFn := m.NewFunc("main", nil, false)
	mb := ir.NewBuilder(mainFn)
	r := mb.Call(f)
	mb.Out(r)
	mb.Ret()

	if err := ir.Verify(m); err != nil {
		t.Fatalf("verify: %v", err)
	}
	return m
}

func TestCompileShape(t *testing.T) {
	// The access counts fit in Run's padding after Len.
	if n := unsafe.Sizeof(Run{}); n != 24 {
		t.Errorf("a Run takes %d bytes, want 24", n)
	}
	m := testModule(t)
	model := energy.MSP430FR5969()
	p := Compile(m, model)

	if len(p.Vars) != 2 {
		t.Fatalf("slot table has %d vars, want 2", len(p.Vars))
	}
	for _, v := range m.Globals {
		if _, ok := p.SlotOf(v); !ok {
			t.Errorf("global %s has no slot", v.Name)
		}
	}
	// NameOrder is a permutation of slots sorted by (name, slot).
	if len(p.NameOrder) != len(p.Vars) {
		t.Fatalf("NameOrder has %d entries, want %d", len(p.NameOrder), len(p.Vars))
	}
	for i := 1; i < len(p.NameOrder); i++ {
		a, b := p.Vars[p.NameOrder[i-1]], p.Vars[p.NameOrder[i]]
		if a.Name > b.Name {
			t.Errorf("NameOrder not sorted: %q before %q", a.Name, b.Name)
		}
	}

	for _, f := range m.Funcs {
		cf := p.FuncOf(f)
		if cf == nil {
			t.Fatalf("no compiled func for %s", f.Name)
		}
		if cf.Entry == nil || cf.Entry.IR != f.Entry() {
			t.Errorf("%s: entry block mismatch", f.Name)
		}
		for _, blk := range f.Blocks {
			cb := p.BlockOf(blk)
			if cb == nil {
				t.Fatalf("%s.%s: no compiled block", f.Name, blk.Name)
			}
			if len(cb.Code) != len(blk.Instrs) {
				t.Fatalf("%s.%s: %d compiled instrs, want %d", f.Name, blk.Name, len(cb.Code), len(blk.Instrs))
			}
			for i, in := range blk.Instrs {
				ci := &cb.Code[i]
				// Every instruction's precomputed cost must match the
				// model's live answer under the block's allocation.
				space := ir.NVM
				if v, _, ok := ir.AccessedVar(in); ok && blk.InVM(v) {
					space = ir.VM
				}
				e, cyc := model.InstrCost(in, space)
				if ci.Energy != e || ci.Cycles != cyc {
					t.Errorf("%s.%s[%d]: cost (%g,%d), model says (%g,%d)",
						f.Name, blk.Name, i, ci.Energy, ci.Cycles, e, cyc)
				}
			}
			// Run metadata: each run covers only batchable opcodes, stops
			// before control/checkpoints, and its totals equal the
			// per-instruction sums and counts.
			for pc, r := range cb.Runs {
				if r.Len == 0 {
					continue
				}
				var e float64
				var cyc int64
				var vm, nvm uint16
				for k := pc; k < pc+int(r.Len); k++ {
					ci := &cb.Code[k]
					if !batchable(ci.Code) {
						t.Fatalf("%s.%s: run at %d includes non-batchable pc %d", f.Name, blk.Name, pc, k)
					}
					e += ci.Energy
					cyc += ci.Cycles
					if ci.IsMem && ci.InVM {
						vm++
					} else if ci.IsMem {
						nvm++
					}
				}
				if r.Energy != e || r.Cycles != cyc || r.VMAccesses != vm || r.NVMAccesses != nvm {
					t.Errorf("%s.%s: run at %d totals (%g,%d,%d,%d), sum (%g,%d,%d,%d)", f.Name, blk.Name, pc,
						r.Energy, r.Cycles, r.VMAccesses, r.NVMAccesses, e, cyc, vm, nvm)
				}
				if end := pc + int(r.Len); end < len(cb.Code) && batchable(cb.Code[end].Code) {
					t.Errorf("%s.%s: run at %d stops early at batchable pc %d", f.Name, blk.Name, pc, end)
				}
			}
		}
	}
}

// TestStaleness: every in-place mutation the pipeline performs between
// runs — retargeting a branch, changing a block's VM allocation,
// editing a checkpoint's save list, introducing a new variable — must
// flip Stale(), and an untouched program must not be stale.
func TestStaleness(t *testing.T) {
	model := energy.MSP430FR5969()

	fresh := Compile(testModule(t), model)
	if fresh.Stale() {
		t.Fatal("freshly compiled program reports stale")
	}

	mutations := []struct {
		name string
		mut  func(m *ir.Module)
	}{
		{"branch-retarget", func(m *ir.Module) {
			f := m.FuncByName("work")
			for _, blk := range f.Blocks {
				for _, in := range blk.Instrs {
					if br, ok := in.(*ir.Br); ok {
						br.Then, br.Else = br.Else, br.Then
						return
					}
				}
			}
			t.Fatal("no branch found")
		}},
		{"alloc-change", func(m *ir.Module) {
			f := m.FuncByName("work")
			// Evict the accumulator from VM in one block: flips the
			// compiled InVM classification and the baked-in costs.
			f.Blocks[2].Alloc = map[*ir.Var]bool{}
		}},
		{"save-list", func(m *ir.Module) {
			f := m.FuncByName("work")
			for _, blk := range f.Blocks {
				for _, in := range blk.Instrs {
					if ck, ok := in.(*ir.Checkpoint); ok {
						ck.Save = append(ck.Save, m.Globals[1])
						return
					}
				}
			}
			t.Fatal("no checkpoint found")
		}},
		{"new-variable", func(m *ir.Module) {
			v := m.NewGlobal("fresh", 1)
			f := m.FuncByName("work")
			for _, blk := range f.Blocks {
				for _, in := range blk.Instrs {
					if st, ok := in.(*ir.Store); ok {
						st.Var = v
						return
					}
				}
			}
			t.Fatal("no store found")
		}},
		{"instruction-edit", func(m *ir.Module) {
			f := m.FuncByName("work")
			for _, blk := range f.Blocks {
				for _, in := range blk.Instrs {
					if c, ok := in.(*ir.Const); ok {
						c.Val++
						return
					}
				}
			}
			t.Fatal("no const found")
		}},
	}
	for _, tc := range mutations {
		m := testModule(t)
		p := Compile(m, model)
		if p.Stale() {
			t.Fatalf("%s: stale before mutation", tc.name)
		}
		tc.mut(m)
		if !p.Stale() {
			t.Errorf("%s: mutation not detected", tc.name)
		}
	}
}

// TestCacheReuseAndRecompile: For returns the same Program while the
// module is unchanged, a new one after an in-place mutation, and evicts
// FIFO once the cache fills.
func TestCacheReuseAndRecompile(t *testing.T) {
	model := energy.MSP430FR5969()
	m := testModule(t)

	p1 := For(m, model)
	if p2 := For(m, model); p2 != p1 {
		t.Error("unchanged module recompiled")
	}

	// In-place mutation (what transval does between pipeline stages)
	// must force a recompile on the next For.
	f := m.FuncByName("work")
	for _, blk := range f.Blocks {
		for _, in := range blk.Instrs {
			if c, ok := in.(*ir.Const); ok {
				c.Val++
				goto mutated
			}
		}
	}
	t.Fatal("no const found")
mutated:
	p3 := For(m, model)
	if p3 == p1 {
		t.Fatal("stale cache entry returned after mutation")
	}
	if p3.Stale() {
		t.Fatal("recompiled program still stale")
	}
	if p4 := For(m, model); p4 != p3 {
		t.Error("recompiled entry not cached")
	}

	// Fill the cache past its bound; the oldest entries are evicted and
	// compile fresh on re-request, while the map never exceeds the cap.
	for i := 0; i < cacheCap+8; i++ {
		For(testModule(t), model)
	}
	cache.Lock()
	n := len(cache.progs)
	cache.Unlock()
	if n > cacheCap {
		t.Fatalf("cache holds %d entries, cap %d", n, cacheCap)
	}
}
