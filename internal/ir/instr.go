package ir

import (
	"fmt"
	"strings"
)

// Op is a binary or unary operator.
type Op uint8

const (
	OpAdd Op = iota
	OpSub
	OpMul
	OpDiv
	OpRem
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	// Unary operators (operand in A).
	OpNeg
	OpNot // logical not: 1 if A == 0, else 0
)

var opNames = [...]string{
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div", OpRem: "rem",
	OpAnd: "and", OpOr: "or", OpXor: "xor", OpShl: "shl", OpShr: "shr",
	OpEq: "eq", OpNe: "ne", OpLt: "lt", OpLe: "le", OpGt: "gt", OpGe: "ge",
	OpNeg: "neg", OpNot: "not",
}

func (o Op) String() string { return opNames[o] }

// IsUnary reports whether the operator takes a single operand.
func (o Op) IsUnary() bool { return o == OpNeg || o == OpNot }

// OpByName resolves a textual operator name; ok is false if unknown.
func OpByName(name string) (Op, bool) {
	for i, n := range opNames {
		if n == name {
			return Op(i), true
		}
	}
	return 0, false
}

// Instr is an IR instruction. The concrete types below form a closed set.
type Instr interface {
	String() string
	isTerminator() bool
}

// Const sets Dst to an immediate value.
type Const struct {
	Dst Reg
	Val int64
}

// BinOp computes Dst = A op B (or op A for unary operators).
type BinOp struct {
	Dst  Reg
	Op   Op
	A, B Reg
}

// Load reads a variable (optionally indexed) into Dst. The memory space
// charged for the access is the one the enclosing block's allocation
// assigns to Var.
type Load struct {
	Dst      Reg
	Var      *Var
	Index    Reg
	HasIndex bool
}

// Store writes Src into a variable (optionally indexed).
type Store struct {
	Var      *Var
	Index    Reg
	HasIndex bool
	Src      Reg
}

// Call invokes Callee with the given argument registers; if the callee
// returns a value it is placed in Dst.
type Call struct {
	Dst    Reg
	HasDst bool
	Callee *Func
	Args   []Reg
}

// Out emits the value in Src to the program's output stream. Output is the
// observable behaviour used to check semantic preservation under
// intermittent execution.
type Out struct {
	Src Reg
}

// Br branches to Then if Cond is non-zero, else to Else.
type Br struct {
	Cond       Reg
	Then, Else *Block
}

// Jmp is an unconditional branch.
type Jmp struct {
	Target *Block
}

// Ret returns from the function, with the value in Src when HasSrc.
type Ret struct {
	Src    Reg
	HasSrc bool
}

// CheckpointKind distinguishes the runtime behaviours of checkpoint sites.
type CheckpointKind uint8

const (
	// CkWait saves volatile state, sleeps until the capacitor is fully
	// replenished, restores, and resumes (SCHEMATIC and ROCKCLIMB, Fig. 3).
	CkWait CheckpointKind = iota
	// CkRollback saves volatile state and continues immediately; on a later
	// power failure execution restarts from the most recent save (RATCHET,
	// ALFRED).
	CkRollback
	// CkTrigger is a MEMENTOS-style trigger point: the runtime measures the
	// remaining energy and saves only when it is below a threshold.
	CkTrigger
)

func (k CheckpointKind) String() string {
	switch k {
	case CkWait:
		return "wait"
	case CkRollback:
		return "rollback"
	default:
		return "trigger"
	}
}

// Checkpoint is an enabled checkpoint location. Placement passes insert it
// on split CFG edges (or inside blocks for loop-latch schemes).
type Checkpoint struct {
	ID   int
	Kind CheckpointKind

	// Every implements the conditional checkpointing scheme of Algorithm 1:
	// when > 1 the runtime maintains a counter and the checkpoint fires only
	// every Every-th execution. 0 and 1 both mean "always".
	Every int

	// Save lists the VM-resident variables that are live across the
	// checkpoint and must be written to NVM (Eq. 2: dead variables are
	// skipped). Registers are always saved. nil means "save every variable
	// the current allocation puts in VM" (conservative runtimes).
	Save []*Var
	// Restore lists the VM-resident variables to read back from NVM when
	// resuming. A variable whose first post-checkpoint access is a write is
	// omitted (Eq. 2).
	Restore []*Var
	// SaveAll makes the runtime save/restore every live VM variable
	// regardless of Save/Restore (used by baselines without liveness
	// optimization).
	SaveAll bool
	// RegsOnly marks RATCHET-style register-only checkpoints (working
	// memory is NVM, so only the register file is volatile).
	RegsOnly bool
	// RefinedRegs, when set, means LiveRegs holds the number of
	// general-purpose registers live across this checkpoint: the runtime
	// then saves only those plus the fixed machine state (PC, SR) instead
	// of the whole register file (§VII's data-volume reduction).
	RefinedRegs bool
	LiveRegs    int
	// Lazy selects ALFRED's deferred restoration and anticipated saving:
	// only variables dirtied since the previous save are written, and
	// post-failure restores are charged per variable on first access.
	Lazy bool
}

// LoopBound is a metadata pseudo-instruction placed at the start of a loop
// header block, carrying the annotated maximum iteration count of the loop
// (MiniC's @max annotation). It costs nothing at run time; Algorithm 1
// compares its value against numit to decide whether back-edge
// checkpointing can be elided.
type LoopBound struct {
	Max int
}

func (*Const) isTerminator() bool      { return false }
func (*BinOp) isTerminator() bool      { return false }
func (*Load) isTerminator() bool       { return false }
func (*Store) isTerminator() bool      { return false }
func (*Call) isTerminator() bool       { return false }
func (*Out) isTerminator() bool        { return false }
func (*Checkpoint) isTerminator() bool { return false }
func (*LoopBound) isTerminator() bool  { return false }
func (*Br) isTerminator() bool         { return true }
func (*Jmp) isTerminator() bool        { return true }
func (*Ret) isTerminator() bool        { return true }

func (i *Const) String() string { return fmt.Sprintf("%v = const %d", i.Dst, i.Val) }

func (i *BinOp) String() string {
	if i.Op.IsUnary() {
		return fmt.Sprintf("%v = %v %v", i.Dst, i.Op, i.A)
	}
	return fmt.Sprintf("%v = %v %v, %v", i.Dst, i.Op, i.A, i.B)
}

func (i *Load) String() string {
	if i.HasIndex {
		return fmt.Sprintf("%v = load %s[%v]", i.Dst, i.Var.Name, i.Index)
	}
	return fmt.Sprintf("%v = load %s", i.Dst, i.Var.Name)
}

func (i *Store) String() string {
	if i.HasIndex {
		return fmt.Sprintf("store %s[%v], %v", i.Var.Name, i.Index, i.Src)
	}
	return fmt.Sprintf("store %s, %v", i.Var.Name, i.Src)
}

func (i *Call) String() string {
	args := make([]string, len(i.Args))
	for k, a := range i.Args {
		args[k] = a.String()
	}
	call := fmt.Sprintf("call %s(%s)", i.Callee.Name, strings.Join(args, ", "))
	if i.HasDst {
		return fmt.Sprintf("%v = %s", i.Dst, call)
	}
	return call
}

func (i *Out) String() string { return fmt.Sprintf("out %v", i.Src) }

func (i *LoopBound) String() string { return fmt.Sprintf("loopbound %d", i.Max) }

func (i *Br) String() string {
	return fmt.Sprintf("br %v, %s, %s", i.Cond, i.Then.Name, i.Else.Name)
}

func (i *Jmp) String() string { return fmt.Sprintf("jmp %s", i.Target.Name) }

func (i *Ret) String() string {
	if i.HasSrc {
		return fmt.Sprintf("ret %v", i.Src)
	}
	return "ret"
}

func (i *Checkpoint) String() string {
	s := fmt.Sprintf("checkpoint #%d %s", i.ID, i.Kind)
	if i.Every > 1 {
		s += fmt.Sprintf(" every %d", i.Every)
	}
	if i.RegsOnly {
		s += " regs-only"
	}
	if i.SaveAll {
		s += " save-all"
	}
	if i.Lazy {
		s += " lazy"
	}
	if i.RefinedRegs {
		s += fmt.Sprintf(" liveregs %d", i.LiveRegs)
	}
	if len(i.Save) > 0 {
		s += " save " + varList(i.Save)
	}
	if len(i.Restore) > 0 {
		s += " restore " + varList(i.Restore)
	}
	return s
}

func varList(vs []*Var) string {
	names := make([]string, len(vs))
	for i, v := range vs {
		names[i] = v.Name
	}
	return strings.Join(names, ",")
}

// Uses returns the registers read by an instruction.
func Uses(in Instr) []Reg {
	switch i := in.(type) {
	case *BinOp:
		if i.Op.IsUnary() {
			return []Reg{i.A}
		}
		return []Reg{i.A, i.B}
	case *Load:
		if i.HasIndex {
			return []Reg{i.Index}
		}
	case *Store:
		if i.HasIndex {
			return []Reg{i.Index, i.Src}
		}
		return []Reg{i.Src}
	case *Call:
		return i.Args
	case *Out:
		return []Reg{i.Src}
	case *Br:
		return []Reg{i.Cond}
	case *Ret:
		if i.HasSrc {
			return []Reg{i.Src}
		}
	}
	return nil
}

// Def returns the register written by an instruction, if any.
func Def(in Instr) (Reg, bool) {
	switch i := in.(type) {
	case *Const:
		return i.Dst, true
	case *BinOp:
		return i.Dst, true
	case *Load:
		return i.Dst, true
	case *Call:
		if i.HasDst {
			return i.Dst, true
		}
	}
	return 0, false
}

// AccessedVar returns the memory variable referenced by an instruction
// along with whether the access is a write.
func AccessedVar(in Instr) (v *Var, write, ok bool) {
	switch i := in.(type) {
	case *Load:
		return i.Var, false, true
	case *Store:
		return i.Var, true, true
	}
	return nil, false, false
}
