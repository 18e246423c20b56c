// Package dispatch precompiles IR modules into a dispatch-ready form for
// the emulator: switch-threaded opcode arrays with resolved operand
// indices, variable storage slots, precomputed per-instruction energy and
// cycle costs (including the block's VM/NVM allocation decision), and
// precomputed straight-line run totals that let the machine charge a
// whole run, up to and including the block's branch, in one decision.
//
// A Program is immutable once compiled and carries no mutable machine
// state, so one Program is safely shared by any number of concurrent
// machines running the same module (the crashtest hunter and the trace
// profiler both re-execute one module many times). The package-level
// cache (For) keys programs by (*ir.Module, *energy.Model) and validates
// every hit against a structural fingerprint, because several callers —
// the translation validator in particular — mutate a module in place
// between runs.
package dispatch

import (
	"math"

	"schematic/internal/energy"
	"schematic/internal/ir"
)

// Code is a threaded opcode. Binary operators that cannot trap are
// specialized so the hot loop needs no second dispatch through
// ir.EvalOp; Div and Rem keep the generic CodeBin path, which delegates
// to ir.EvalOp for identical trap semantics and error text.
type Code uint8

const (
	CodeLoopBound Code = iota
	CodeConst
	CodeBin // generic BinOp via ir.EvalOp (div, rem)
	CodeAdd
	CodeSub
	CodeMul
	CodeAnd
	CodeOr
	CodeXor
	CodeShl
	CodeShr
	CodeEq
	CodeNe
	CodeLt
	CodeLe
	CodeGt
	CodeGe
	CodeNeg
	CodeNot
	CodeLoad
	CodeStore
	CodeCall
	CodeOut
	CodeBr
	CodeJmp
	CodeRet
	CodeCheckpoint
	// CodeUnknown marks an instruction outside the closed IR set. It
	// compiles (a module is only in error when such an instruction is
	// actually executed) and raises the emulator's "unknown instruction"
	// error on execution.
	CodeUnknown
)

// binCode maps a BinOp operator to its specialized opcode, or CodeBin
// when the operator can trap and must go through ir.EvalOp.
func binCode(op ir.Op) Code {
	switch op {
	case ir.OpAdd:
		return CodeAdd
	case ir.OpSub:
		return CodeSub
	case ir.OpMul:
		return CodeMul
	case ir.OpAnd:
		return CodeAnd
	case ir.OpOr:
		return CodeOr
	case ir.OpXor:
		return CodeXor
	case ir.OpShl:
		return CodeShl
	case ir.OpShr:
		return CodeShr
	case ir.OpEq:
		return CodeEq
	case ir.OpNe:
		return CodeNe
	case ir.OpLt:
		return CodeLt
	case ir.OpLe:
		return CodeLe
	case ir.OpGt:
		return CodeGt
	case ir.OpGe:
		return CodeGe
	case ir.OpNeg:
		return CodeNeg
	case ir.OpNot:
		return CodeNot
	default:
		return CodeBin
	}
}

// Instr is one compiled instruction: opcode, resolved operand and storage
// indices, and the precomputed cost of executing it once under the
// block's allocation.
type Instr struct {
	Code Code

	Dst  int32 // destination register (Const, BinOps, Load, Call)
	A, B int32 // operand registers; A doubles as Src (Store/Out/Ret), Cond (Br)

	Val int64 // Const immediate
	Op  ir.Op // CodeBin: the trapping operator

	// Precomputed Model.InstrCost under the block's allocation.
	Energy float64
	Cycles int64

	// Memory instructions: resolved variable slot, index register, and
	// the block's precomputed VM/NVM classification.
	Slot     int32
	HasIndex bool
	InVM     bool
	IsMem    bool
	Var      *ir.Var // for index-error messages and element counts

	Then, Else *Block // compiled branch targets (Jmp uses Then)
	Callee     *Func
	Args       []int32
	HasDst     bool // Call writes Dst; Ret carries a value in A

	Ck *ir.Checkpoint
	IR ir.Instr // original instruction (unknown-instruction error text)
}

// Run is the precomputed maximal straight-line batch starting at a pc:
// Len consecutive instructions that make no call or return and hit no
// checkpoint, ending at the block's Br/Jmp when the straight line
// reaches it — chargeable in one decision when no schedule, observer or
// hook can fire inside the window. Memory instructions ride along on
// their happy path; the executor leaves the batch early when an access
// needs the materialization machinery. Energy, Cycles, VMAccesses and
// NVMAccesses are the run's totals: Energy decides whether the run fits
// the capacitor, and the executor adds the integer totals once the run
// ends. Each pc inside a run starts the rest of it, so the totals of a
// run's tail are those of the Run at the tail's first pc. Ledger energy
// sums stay per-instruction, so results remain bit-identical.
type Run struct {
	Len int32
	// Compile ends a run before either count would overflow.
	VMAccesses, NVMAccesses uint16
	Energy                  float64
	Cycles                  int64
}

// Block is a compiled basic block.
type Block struct {
	IR   *ir.Block
	Code []Instr
	Runs []Run // per-pc batch metadata, same length as Code

	id int32 // global ordinal, fingerprint identity for branch targets
}

// ID returns the block's ordinal: its position in module order, counting
// the blocks of every function in turn. Ordinals depend only on the
// module, so every compilation of an unchanged module agrees on them.
func (b *Block) ID() int { return int(b.id) }

// Func is a compiled function.
type Func struct {
	IR     *ir.Func
	Entry  *Block
	Blocks []*Block

	id int32
}

// ID returns the function's ordinal, its index in the module's Funcs.
func (f *Func) ID() int { return int(f.id) }

// Program is a compiled module bound to one energy model. Immutable
// after Compile; share freely across goroutines.
type Program struct {
	Mod   *ir.Module
	Model *energy.Model

	// Vars is the slot table: every module-level and function-local
	// variable in declaration order. Machine storage (NVM homes, VM
	// residency, pending/dirty flags) is indexed by slot.
	Vars []*ir.Var
	// NameOrder lists slots sorted by (variable name, slot), the
	// deterministic iteration order for save sets, snapshots, and
	// resident-variable listings.
	NameOrder []int32

	Funcs []*Func

	slotOf  map[*ir.Var]int32
	fnOf    map[*ir.Func]*Func
	blockOf map[*ir.Block]*Block

	blocks int // number of blocks, one past the largest block ordinal
	fp     uint64
}

// NumBlocks returns the number of compiled blocks in the module.
func (p *Program) NumBlocks() int { return p.blocks }

// Fingerprint returns the structural hash of the module as compiled;
// Stale compares it against the module's current form.
func (p *Program) Fingerprint() uint64 { return p.fp }

// SlotOf resolves a variable's storage slot. The second result is false
// for a variable outside the compiled slot table (a staleness signal:
// the module was mutated after compilation).
func (p *Program) SlotOf(v *ir.Var) (int32, bool) {
	s, ok := p.slotOf[v]
	return s, ok
}

// FuncOf returns the compiled counterpart of f, or nil.
func (p *Program) FuncOf(f *ir.Func) *Func { return p.fnOf[f] }

// BlockOf returns the compiled counterpart of b, or nil.
func (p *Program) BlockOf(b *ir.Block) *Block { return p.blockOf[b] }

// Stale reports whether the module no longer matches the compiled form:
// an optimizer or placement pass mutated instructions, allocations,
// branch targets, or the variable set in place since Compile ran. A
// stale program must be recompiled before running. The check is one
// allocation-free walk of the module, O(instructions) — trivial next to
// an emulation.
func (p *Program) Stale() bool {
	fp, ok := p.fingerprint()
	return !ok || fp != p.fp
}

// Compile translates the module for the given energy model.
func Compile(mod *ir.Module, model *energy.Model) *Program {
	p := &Program{
		Mod:     mod,
		Model:   model,
		slotOf:  map[*ir.Var]int32{},
		fnOf:    map[*ir.Func]*Func{},
		blockOf: map[*ir.Block]*Block{},
	}
	addVar := func(v *ir.Var) {
		if _, ok := p.slotOf[v]; ok {
			return
		}
		p.slotOf[v] = int32(len(p.Vars))
		p.Vars = append(p.Vars, v)
	}
	for _, v := range mod.Globals {
		addVar(v)
	}
	for _, f := range mod.Funcs {
		for _, v := range f.Locals {
			addVar(v)
		}
	}
	p.NameOrder = nameOrder(p.Vars)

	// Shells first, so branch and call targets resolve in one pass.
	var blockID int32
	for _, f := range mod.Funcs {
		cf := &Func{IR: f, id: int32(len(p.Funcs))}
		for _, b := range f.Blocks {
			cb := &Block{IR: b, id: blockID}
			blockID++
			cf.Blocks = append(cf.Blocks, cb)
			p.blockOf[b] = cb
		}
		if len(cf.Blocks) > 0 {
			cf.Entry = p.blockOf[f.Entry()]
		}
		p.Funcs = append(p.Funcs, cf)
		p.fnOf[f] = cf
	}
	p.blocks = int(blockID)
	for _, cf := range p.Funcs {
		for _, cb := range cf.Blocks {
			p.compileBlock(cb)
		}
	}
	p.fp, _ = p.fingerprint()
	return p
}

func (p *Program) compileBlock(cb *Block) {
	b := cb.IR
	cb.Code = make([]Instr, len(b.Instrs))
	for i, in := range b.Instrs {
		ci := &cb.Code[i]
		ci.IR = in
		space := ir.NVM
		if v, _, ok := ir.AccessedVar(in); ok && b.InVM(v) {
			space = ir.VM
		}
		ci.Energy, ci.Cycles = p.Model.InstrCost(in, space)
		switch x := in.(type) {
		case *ir.LoopBound:
			ci.Code = CodeLoopBound
		case *ir.Const:
			ci.Code = CodeConst
			ci.Dst = int32(x.Dst)
			ci.Val = x.Val
		case *ir.BinOp:
			ci.Code = binCode(x.Op)
			ci.Op = x.Op
			ci.Dst = int32(x.Dst)
			ci.A = int32(x.A)
			ci.B = int32(x.B)
		case *ir.Load:
			ci.Code = CodeLoad
			ci.IsMem = true
			ci.Dst = int32(x.Dst)
			ci.Slot = p.slotOf[x.Var]
			ci.A = int32(x.Index)
			ci.HasIndex = x.HasIndex
			ci.InVM = space == ir.VM
			ci.Var = x.Var
		case *ir.Store:
			ci.Code = CodeStore
			ci.IsMem = true
			ci.A = int32(x.Src)
			ci.Slot = p.slotOf[x.Var]
			ci.B = int32(x.Index)
			ci.HasIndex = x.HasIndex
			ci.InVM = space == ir.VM
			ci.Var = x.Var
		case *ir.Call:
			ci.Code = CodeCall
			ci.Callee = p.fnOf[x.Callee]
			ci.Dst = int32(x.Dst)
			ci.HasDst = x.HasDst
			ci.Args = make([]int32, len(x.Args))
			for k, a := range x.Args {
				ci.Args[k] = int32(a)
			}
		case *ir.Out:
			ci.Code = CodeOut
			ci.A = int32(x.Src)
		case *ir.Br:
			ci.Code = CodeBr
			ci.A = int32(x.Cond)
			ci.Then = p.blockOf[x.Then]
			ci.Else = p.blockOf[x.Else]
		case *ir.Jmp:
			ci.Code = CodeJmp
			ci.Then = p.blockOf[x.Target]
		case *ir.Ret:
			ci.Code = CodeRet
			ci.A = int32(x.Src)
			ci.HasDst = x.HasSrc
		case *ir.Checkpoint:
			ci.Code = CodeCheckpoint
			ci.Ck = x
		default:
			ci.Code = CodeUnknown
		}
	}

	// Batch metadata. Lengths are computed backwards: a run extends while
	// the instruction is batchable, and a Br/Jmp ends it. The energy and
	// cycle totals are summed forward from each start, in the order the
	// batch executes.
	cb.Runs = make([]Run, len(cb.Code))
	for i := len(cb.Code) - 1; i >= 0; i-- {
		ci := &cb.Code[i]
		if !batchable(ci.Code) {
			continue
		}
		r := &cb.Runs[i]
		r.Len = 1
		switch {
		case !ci.IsMem:
		case ci.InVM:
			r.VMAccesses = 1
		default:
			r.NVMAccesses = 1
		}
		if ci.Code != CodeBr && ci.Code != CodeJmp && i+1 < len(cb.Code) {
			if next := &cb.Runs[i+1]; next.VMAccesses < math.MaxUint16 && next.NVMAccesses < math.MaxUint16 {
				r.Len += next.Len
				r.VMAccesses += next.VMAccesses
				r.NVMAccesses += next.NVMAccesses
			}
		}
		for k := i; k < i+int(r.Len); k++ {
			r.Energy += cb.Code[k].Energy
			r.Cycles += cb.Code[k].Cycles
		}
	}
}

// batchable reports whether an opcode may live inside a straight-line
// batch: no call, return, or checkpoint, and a Br/Jmp only as the run's
// last instruction (the batch ends by entering the target block). Memory
// instructions are batchable — their happy path (resident, non-pending
// storage) needs no machinery beyond the sub-ledger additions; the batch
// executor checks residency before accounting and exits the batch when
// an access needs materialization, deferred-restore charging, or
// poisoning. Trapping operators and index checks are fine — they abort
// the run exactly where stepping would.
func batchable(c Code) bool {
	switch c {
	case CodeLoopBound, CodeConst, CodeBin,
		CodeAdd, CodeSub, CodeMul, CodeAnd, CodeOr, CodeXor,
		CodeShl, CodeShr, CodeEq, CodeNe, CodeLt, CodeLe, CodeGt, CodeGe,
		CodeNeg, CodeNot, CodeOut, CodeLoad, CodeStore, CodeBr, CodeJmp:
		return true
	}
	return false
}

// nameOrder returns the slots sorted by (name, slot) without assuming
// unique names: duplicate local names across functions tie-break on the
// slot index, keeping every deterministic iteration truly deterministic.
func nameOrder(vars []*ir.Var) []int32 {
	order := make([]int32, len(vars))
	for i := range order {
		order[i] = int32(i)
	}
	// Insertion sort: var counts are small and this avoids sort.Slice's
	// closure allocation in the compile path.
	for i := 1; i < len(order); i++ {
		for j := i; j > 0; j-- {
			a, b := order[j-1], order[j]
			if vars[a].Name < vars[b].Name || (vars[a].Name == vars[b].Name && a < b) {
				break
			}
			order[j-1], order[j] = b, a
		}
	}
	return order
}
