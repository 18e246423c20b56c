package dispatch

import "schematic/internal/ir"

// The fingerprint is an FNV-style hash over everything the compiled form
// bakes in: instruction kinds and operands, variable slots, VM/NVM
// allocation decisions, branch and call targets, checkpoint save/restore
// lists, and the shape of the variable and function tables. Anything the
// machine reads live from the IR at execution time (variable element
// counts, checkpoint kinds and flags are hashed anyway for cheapness;
// names and Init data are not — they never affect the compiled form) can
// change without invalidating the program.

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

type hasher struct {
	h  uint64
	ok bool
}

func newHasher() hasher { return hasher{h: fnvOffset, ok: true} }

// word mixes one 64-bit word per FNV round. A round is a bijection in
// h and in v, so changing any one word changes the fingerprint; the
// fingerprint never leaves the process, so it need not be byte-wise
// FNV-1a.
func (s *hasher) word(v uint64) {
	s.h = (s.h ^ v) * fnvPrime
}

func (s *hasher) int(v int)   { s.word(uint64(v)) }
func (s *hasher) i64(v int64) { s.word(uint64(v)) }
func (s *hasher) bool(v bool) {
	if v {
		s.word(1)
	} else {
		s.word(0)
	}
}

// fingerprint hashes the module through the program's identity maps.
// ok is false when the module references an entity the program does not
// know (a new variable, block, or function) — definitionally stale.
func (p *Program) fingerprint() (uint64, bool) {
	s := newHasher()
	m := p.Mod
	s.int(len(m.Globals))
	s.int(len(m.Funcs))
	slot := func(v *ir.Var) {
		sl, ok := p.slotOf[v]
		if !ok {
			s.ok = false
			return
		}
		s.word(uint64(sl))
	}
	block := func(b *ir.Block) {
		cb, ok := p.blockOf[b]
		if !ok {
			s.ok = false
			return
		}
		s.word(uint64(cb.id))
	}
	for _, f := range m.Funcs {
		cf, ok := p.fnOf[f]
		if !ok {
			return 0, false
		}
		s.word(uint64(cf.id))
		s.int(f.NumRegs)
		s.int(len(f.Locals))
		s.int(len(f.Blocks))
		for _, b := range f.Blocks {
			block(b)
			s.int(len(b.Instrs))
			for _, in := range b.Instrs {
				switch x := in.(type) {
				case *ir.Const:
					s.word(1)
					s.int(int(x.Dst))
					s.i64(x.Val)
				case *ir.BinOp:
					s.word(2)
					s.int(int(x.Op))
					s.int(int(x.Dst))
					s.int(int(x.A))
					s.int(int(x.B))
				case *ir.Load:
					s.word(3)
					s.int(int(x.Dst))
					slot(x.Var)
					s.int(int(x.Index))
					s.bool(x.HasIndex)
					s.bool(b.InVM(x.Var))
				case *ir.Store:
					s.word(4)
					s.int(int(x.Src))
					slot(x.Var)
					s.int(int(x.Index))
					s.bool(x.HasIndex)
					s.bool(b.InVM(x.Var))
				case *ir.Call:
					s.word(5)
					callee, ok := p.fnOf[x.Callee]
					if !ok {
						return 0, false
					}
					s.word(uint64(callee.id))
					s.int(int(x.Dst))
					s.bool(x.HasDst)
					s.int(len(x.Args))
					for _, a := range x.Args {
						s.int(int(a))
					}
				case *ir.Out:
					s.word(6)
					s.int(int(x.Src))
				case *ir.Br:
					s.word(7)
					s.int(int(x.Cond))
					block(x.Then)
					block(x.Else)
				case *ir.Jmp:
					s.word(8)
					block(x.Target)
				case *ir.Ret:
					s.word(9)
					s.int(int(x.Src))
					s.bool(x.HasSrc)
				case *ir.Checkpoint:
					s.word(10)
					s.int(x.ID)
					s.int(int(x.Kind))
					s.int(x.Every)
					s.bool(x.SaveAll)
					s.bool(x.RegsOnly)
					s.bool(x.RefinedRegs)
					s.int(x.LiveRegs)
					s.bool(x.Lazy)
					s.int(len(x.Save))
					for _, v := range x.Save {
						slot(v)
					}
					s.int(len(x.Restore))
					for _, v := range x.Restore {
						slot(v)
					}
				case *ir.LoopBound:
					s.word(11)
				default:
					s.word(12)
				}
				if !s.ok {
					return 0, false
				}
			}
		}
	}
	return s.h, s.ok
}
