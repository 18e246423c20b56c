// Package energy models the worst-case energy consumption of the target
// platform. SCHEMATIC assumes "a safe yet precise worst-case energy
// consumption model is provided as an input" (paper, II-B); this package is
// that input.
//
// The model mirrors the structure of the one the paper borrows from ALFRED:
// the energy of an instruction is derived from its execution time (cycles)
// and the kind of memory it touches (VM or NVM), with NVM accesses costing
// up to ~2.47× a VM access on the MSP430FR5969. Absolute values are in
// nanojoules; only the ratios matter for the reproduced experiment shapes.
package energy

import (
	"fmt"

	"schematic/internal/ir"
)

// Model is a worst-case energy model for a hybrid VM/NVM platform.
type Model struct {
	Name string

	// EnergyPerCycle is the CPU core energy per clock cycle, in nJ.
	EnergyPerCycle float64

	// Cycle counts per instruction class (excluding memory access time).
	CyclesALU    int // add/sub/logic/compare
	CyclesMulDiv int
	CyclesConst  int
	CyclesBranch int
	CyclesCall   int
	CyclesRet    int
	CyclesOut    int

	// Memory access: cycles and energy per word access, by space.
	VMAccessCycles  int
	NVMAccessCycles int
	VMReadEnergy    float64 // nJ per word read from SRAM
	VMWriteEnergy   float64
	NVMReadEnergy   float64 // nJ per word read from FRAM
	NVMWriteEnergy  float64

	// Checkpointing costs.
	RegFileBytes   int     // architectural register file saved at every checkpoint
	SavePerByte    float64 // nJ per byte streamed into the NVM checkpoint area
	RestorePerByte float64 // nJ per byte read back
	CheckpointBase float64 // fixed overhead of a save operation (bookkeeping, sleep entry)
	RestoreBase    float64 // fixed overhead of a restore operation (wake-up, bookkeeping)

	// SleepWakeCheck is the energy of one voltage measurement while waiting
	// for the capacitor to replenish (Fig. 3); charged to the harvesting
	// budget, not the program, so it is informational.
	SleepWakeCheck float64
}

// MSP430FR5969 returns the default model: a 16 MHz MSP430FR5969-class MCU
// with 2 KB SRAM and 64 KB FRAM.
func MSP430FR5969() *Model {
	return &Model{
		Name:            "MSP430FR5969@16MHz",
		EnergyPerCycle:  0.40,
		CyclesALU:       1,
		CyclesMulDiv:    8,
		CyclesConst:     1,
		CyclesBranch:    2,
		CyclesCall:      5,
		CyclesRet:       4,
		CyclesOut:       2,
		VMAccessCycles:  2,
		NVMAccessCycles: 5, // FRAM wait states above 8 MHz
		VMReadEnergy:    0.75,
		VMWriteEnergy:   0.75,
		NVMReadEnergy:   1.85, // ≈ 2.47 × VM access energy
		NVMWriteEnergy:  1.85,
		RegFileBytes:    32, // 16 registers × 2 bytes
		SavePerByte:     1.30,
		RestorePerByte:  1.00,
		CheckpointBase:  20,
		RestoreBase:     10,
		SleepWakeCheck:  2,
	}
}

// Validate reports configuration errors.
func (m *Model) Validate() error {
	if m.EnergyPerCycle <= 0 {
		return fmt.Errorf("energy: %s: EnergyPerCycle must be positive", m.Name)
	}
	if m.NVMReadEnergy < m.VMReadEnergy || m.NVMWriteEnergy < m.VMWriteEnergy {
		return fmt.Errorf("energy: %s: NVM access cheaper than VM access", m.Name)
	}
	if m.SavePerByte <= 0 || m.RestorePerByte <= 0 {
		return fmt.Errorf("energy: %s: checkpoint byte costs must be positive", m.Name)
	}
	if m.RegFileBytes <= 0 {
		return fmt.Errorf("energy: %s: RegFileBytes must be positive", m.Name)
	}
	return nil
}

// DeltaER is the per-read energy gain of VM over NVM (Eq. 1).
func (m *Model) DeltaER() float64 { return m.NVMReadEnergy - m.VMReadEnergy }

// DeltaEW is the per-write energy gain of VM over NVM (Eq. 1).
func (m *Model) DeltaEW() float64 { return m.NVMWriteEnergy - m.VMWriteEnergy }

// ReadGain is the total per-read energy gain of a VM access over an NVM
// access, including the core energy of the extra NVM wait cycles. This is
// the ΔER of Eq. 1 under this model.
func (m *Model) ReadGain() float64 {
	return m.DeltaER() + float64(m.NVMAccessCycles-m.VMAccessCycles)*m.EnergyPerCycle
}

// WriteGain is the total per-write gain of VM over NVM (the ΔEW of Eq. 1).
func (m *Model) WriteGain() float64 {
	return m.DeltaEW() + float64(m.NVMAccessCycles-m.VMAccessCycles)*m.EnergyPerCycle
}

// InstrCost returns the energy (nJ) and cycle count of an instruction in
// a single classification pass: core energy for its cycles plus the
// memory access energy when applicable. For memory instructions, space
// selects the accessed memory. It is the single source of per-instruction
// cost; InstrEnergy and InstrCycles are views of it.
func (m *Model) InstrCost(in ir.Instr, space ir.Space) (nJ float64, cycles int64) {
	var c int
	var mem float64
	switch x := in.(type) {
	case *ir.Const:
		c = m.CyclesConst
	case *ir.BinOp:
		if x.Op == ir.OpMul || x.Op == ir.OpDiv || x.Op == ir.OpRem {
			c = m.CyclesMulDiv
		} else {
			c = m.CyclesALU
		}
	case *ir.Load:
		if space == ir.VM {
			c, mem = m.VMAccessCycles, m.VMReadEnergy
		} else {
			c, mem = m.NVMAccessCycles, m.NVMReadEnergy
		}
	case *ir.Store:
		if space == ir.VM {
			c, mem = m.VMAccessCycles, m.VMWriteEnergy
		} else {
			c, mem = m.NVMAccessCycles, m.NVMWriteEnergy
		}
	case *ir.Call:
		c = m.CyclesCall
	case *ir.Ret:
		c = m.CyclesRet
	case *ir.Br, *ir.Jmp:
		c = m.CyclesBranch
	case *ir.Out:
		c = m.CyclesOut
	case *ir.Checkpoint, *ir.LoopBound:
		c = 0 // checkpoints are accounted dynamically; bounds are metadata
	default:
		c = m.CyclesALU
	}
	// Two statements, not a*b+c: keeps the rounding identical to the
	// historical InstrEnergy (no fused multiply-add).
	e := float64(c) * m.EnergyPerCycle
	e += mem
	return e, int64(c)
}

// InstrCycles returns the cycle count of an instruction. For memory
// instructions, space selects the accessed memory.
func (m *Model) InstrCycles(in ir.Instr, space ir.Space) int {
	_, c := m.InstrCost(in, space)
	return int(c)
}

// InstrEnergy returns the energy of an instruction in nJ: core energy for
// its cycles plus the memory access energy when applicable.
func (m *Model) InstrEnergy(in ir.Instr, space ir.Space) float64 {
	e, _ := m.InstrCost(in, space)
	return e
}

// SaveVarCost is the energy to copy a VM variable into the NVM checkpoint
// area (the Esave of Eq. 2).
func (m *Model) SaveVarCost(v *ir.Var) float64 {
	return float64(v.SizeBytes()) * m.SavePerByte
}

// RestoreVarCost is the energy to copy a variable back into VM (the
// Erestore of Eq. 2).
func (m *Model) RestoreVarCost(v *ir.Var) float64 {
	return float64(v.SizeBytes()) * m.RestorePerByte
}

// SaveRegsCost is the energy to save the register file plus the fixed
// checkpoint overhead — charged at every enabled checkpoint.
func (m *Model) SaveRegsCost() float64 {
	return m.CheckpointBase + float64(m.RegFileBytes)*m.SavePerByte
}

// RegBytesFor is the machine state saved for a refined register count:
// PC and SR always, plus the live general-purpose registers; never more
// than the full file. liveRegs < 0 selects the full register file.
func (m *Model) RegBytesFor(liveRegs int) int {
	if liveRegs < 0 {
		return m.RegFileBytes
	}
	b := (liveRegs + 2) * ir.WordBytes
	if b > m.RegFileBytes {
		b = m.RegFileBytes
	}
	return b
}

// SaveRegsCostFor is SaveRegsCost with §VII's liveness refinement: only
// liveRegs general-purpose registers (plus PC/SR) are written.
func (m *Model) SaveRegsCostFor(liveRegs int) float64 {
	if liveRegs < 0 {
		return m.SaveRegsCost()
	}
	return m.CheckpointBase + float64(m.RegBytesFor(liveRegs))*m.SavePerByte
}

// RestoreRegsCostFor is the refined counterpart of RestoreRegsCost.
func (m *Model) RestoreRegsCostFor(liveRegs int) float64 {
	if liveRegs < 0 {
		return m.RestoreRegsCost()
	}
	return m.RestoreBase + float64(m.RegBytesFor(liveRegs))*m.RestorePerByte
}

// RestoreRegsCost is the energy to restore the register file plus the fixed
// restore overhead.
func (m *Model) RestoreRegsCost() float64 {
	return m.RestoreBase + float64(m.RegFileBytes)*m.RestorePerByte
}

// SaveCost is the full cost of a checkpoint save: registers plus the given
// variables.
func (m *Model) SaveCost(vars []*ir.Var) float64 {
	e := m.SaveRegsCost()
	for _, v := range vars {
		e += m.SaveVarCost(v)
	}
	return e
}

// RestoreCost is the full cost of a checkpoint restore: registers plus the
// given variables.
func (m *Model) RestoreCost(vars []*ir.Var) float64 {
	e := m.RestoreRegsCost()
	for _, v := range vars {
		e += m.RestoreVarCost(v)
	}
	return e
}

// BlockExecEnergy returns the energy to execute block b once under the
// given allocation (vm[v] true means v is in VM). Checkpoint instructions
// contribute nothing here; their cost is dynamic.
func (m *Model) BlockExecEnergy(b *ir.Block, vm map[*ir.Var]bool) float64 {
	e := 0.0
	for _, in := range b.Instrs {
		space := ir.NVM
		if v, _, ok := ir.AccessedVar(in); ok && vm != nil && vm[v] {
			space = ir.VM
		}
		cost, _ := m.InstrCost(in, space)
		e += cost
	}
	return e
}
