package emulator

import (
	"fmt"

	"schematic/internal/ir"
)

// This file makes the machine's persistent state — everything that
// survives a power failure — a first-class, resumable value. A
// PersistentState is what the device would find in NVM after the supply
// died: the variables' NVM homes, the conditional-checkpoint counters,
// the committed output prefix, and the committed recovery-point
// snapshot (or nothing, for a cold start). Config.Resume boots a run
// from such a value exactly as powerFailure would, and Config.Hook
// exposes every schedulable injection point of a run together with a
// canonical 128-bit hash of the persistent state at that point — the
// two primitives the bounded model checker in internal/verify is built
// on (DiVM-style hash compaction over resume states).

// StateHash is the canonical 128-bit hash of a PersistentState. Two
// states of the same module with equal persistent content hash equal,
// regardless of how execution arrived at them; any NVM word, counter,
// committed-output, or snapshot difference changes it (modulo the
// 2^-128-ish collision probability hash compaction accepts).
type StateHash [2]uint64

func (h StateHash) String() string { return fmt.Sprintf("%016x%016x", h[0], h[1]) }

// FrameState is one call-stack frame of a committed snapshot,
// serialized by function/block name so the value is meaningful outside
// the machine that captured it.
type FrameState struct {
	Fn      string  `json:"fn"`
	Block   string  `json:"block"`
	PC      int     `json:"pc"`
	Regs    []int64 `json:"regs"`
	RetReg  ir.Reg  `json:"ret_reg"`
	WantRet bool    `json:"want_ret"`
}

// SnapshotState is the committed recovery point inside a
// PersistentState: the volatile state execution rebuilds after a power
// failure. VMSlots/VMData/Restores keep the machine's stored order —
// that order is behavioral (restore costs sum sequentially in it), so
// it is part of the state's identity.
type SnapshotState struct {
	Frames   []FrameState `json:"frames"`
	VMSlots  []int32      `json:"vm_slots"`
	VMData   [][]int64    `json:"vm_data"`
	Restores []int32      `json:"restores"`
	Lazy     bool         `json:"lazy"`
	Site     int          `json:"site"`
	// Done is the snapshot's logical progress index. It is bookkeeping
	// (re-execution accounting), not behavior, and is excluded from the
	// hash: two states differing only in Done behave identically.
	Done int64 `json:"done"`
}

// PersistentState is the machine state that survives a power failure.
// NVM is indexed by the module's deterministic slot table (the same
// program always assigns the same slots); Out is the committed output
// prefix (output beyond the snapshot's high-water mark is lost with the
// volatile state); a nil Snap means no checkpoint has committed yet and
// resume is a cold restart.
type PersistentState struct {
	NVM      [][]int64      `json:"nvm"`
	Counters map[int]int64  `json:"counters,omitempty"`
	Out      []int64        `json:"out,omitempty"`
	Snap     *SnapshotState `json:"snap,omitempty"`
}

// Clone deep-copies the state.
func (ps *PersistentState) Clone() *PersistentState {
	out := &PersistentState{
		NVM: make([][]int64, len(ps.NVM)),
		Out: append([]int64(nil), ps.Out...),
	}
	for i, arr := range ps.NVM {
		out.NVM[i] = append([]int64(nil), arr...)
	}
	if len(ps.Counters) > 0 {
		out.Counters = make(map[int]int64, len(ps.Counters))
		for k, v := range ps.Counters {
			out.Counters[k] = v
		}
	}
	if sn := ps.Snap; sn != nil {
		cp := &SnapshotState{
			Frames:   make([]FrameState, len(sn.Frames)),
			VMSlots:  append([]int32(nil), sn.VMSlots...),
			VMData:   make([][]int64, len(sn.VMData)),
			Restores: append([]int32(nil), sn.Restores...),
			Lazy:     sn.Lazy,
			Site:     sn.Site,
			Done:     sn.Done,
		}
		for i, f := range sn.Frames {
			f.Regs = append([]int64(nil), f.Regs...)
			cp.Frames[i] = f
		}
		for i, d := range sn.VMData {
			cp.VMData[i] = append([]int64(nil), d...)
		}
		out.Snap = cp
	}
	return out
}

// ---- hashing ----
//
// The hash is three lanes mixed at the end:
//
//   - the NVM lane: a wrapping 128-bit sum of one per-cell hash
//     h(slot, index, value) over every NVM word. Summation is
//     commutative, so the lane is independent of write order and — the
//     property the machine exploits — updatable in O(1) per store
//     (lane += h(new) − h(old)) instead of rehashing NVM at every
//     injection point.
//   - the counter lane: the same construction over the non-zero
//     conditional-checkpoint counters (absent and zero coincide, which
//     is sound because counters only ever increment).
//   - the snapshot lane: a sequential hash of the committed snapshot
//     (frames, VM image, restore list in stored order) and the
//     committed output prefix, recomputed when a snapshot commits —
//     rare next to instruction steps.

const (
	fnvOffset64 = 0xcbf29ce484222325
	fnvPrime64  = 0x100000001b3
	// Two independent seeds make the two 64-bit lanes of the wrapping
	// sum effectively independent mixes of the same cell.
	laneSeed1 = 0x9e3779b97f4a7c15
	laneSeed2 = 0xc2b2ae3d27d4eb4f
	// coldTag stands in for the snapshot lane while no checkpoint has
	// committed, so "no snapshot" and "some snapshot" never collide on
	// an empty lane.
	coldTag = 0x736e61702d6e696c // "snap-nil"
)

// mix64 is the splitmix64 finalizer: a cheap full-avalanche mix.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// cellHash is the per-cell contribution of one NVM word to the
// commutative lanes.
func cellHash(slot int32, idx int, val int64) (uint64, uint64) {
	key := uint64(uint32(slot))<<32 | uint64(uint32(idx))
	v := uint64(val)
	return mix64(key ^ mix64(v^laneSeed1)), mix64(key ^ mix64(v^laneSeed2))
}

// ctrHash is the per-counter contribution to the commutative lanes.
// Counter IDs live in a different key space than NVM cells.
func ctrHash(id int, val int64) (uint64, uint64) {
	key := uint64(uint32(id)) | 0xc0de<<48
	v := uint64(val)
	return mix64(key ^ mix64(v^laneSeed1)), mix64(key ^ mix64(v^laneSeed2))
}

// seqHash accumulates one word into a sequential (order-sensitive)
// FNV-1a-style lane.
func seqHash(h, x uint64) uint64 {
	h ^= mix64(x)
	return h * fnvPrime64
}

func seqHashString(h uint64, s string) uint64 {
	h = seqHash(h, uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// snapshotLane hashes a committed snapshot plus the committed output
// prefix sequentially. Done is deliberately excluded (bookkeeping, not
// behavior); everything else in the snapshot is behavioral.
func snapshotLane(sn *SnapshotState, out []int64) (uint64, uint64) {
	if sn == nil {
		return coldTag, coldTag
	}
	h := uint64(fnvOffset64)
	h = seqHash(h, uint64(len(sn.Frames)))
	for i := range sn.Frames {
		f := &sn.Frames[i]
		h = seqHashString(h, f.Fn)
		h = seqHashString(h, f.Block)
		h = seqHash(h, uint64(f.PC))
		h = seqHash(h, uint64(len(f.Regs)))
		for _, r := range f.Regs {
			h = seqHash(h, uint64(r))
		}
		h = seqHash(h, uint64(f.RetReg))
		if f.WantRet {
			h = seqHash(h, 1)
		} else {
			h = seqHash(h, 0)
		}
	}
	h = seqHash(h, uint64(len(sn.VMSlots)))
	for i, slot := range sn.VMSlots {
		h = seqHash(h, uint64(uint32(slot)))
		h = seqHash(h, uint64(len(sn.VMData[i])))
		for _, v := range sn.VMData[i] {
			h = seqHash(h, uint64(v))
		}
	}
	h = seqHash(h, uint64(len(sn.Restores)))
	for _, slot := range sn.Restores {
		h = seqHash(h, uint64(uint32(slot)))
	}
	if sn.Lazy {
		h = seqHash(h, 1)
	} else {
		h = seqHash(h, 0)
	}
	h = seqHash(h, uint64(uint32(sn.Site)))
	h = seqHash(h, uint64(len(out)))
	for _, v := range out {
		h = seqHash(h, uint64(v))
	}
	return h, mix64(h ^ laneSeed2)
}

// combineLanes folds the three lanes into the final 128-bit hash.
func combineLanes(nvm1, nvm2, ctr1, ctr2, snap1, snap2 uint64) StateHash {
	return StateHash{
		mix64(nvm1 ^ mix64(ctr1^mix64(snap1))),
		mix64(nvm2 ^ mix64(ctr2^mix64(snap2))),
	}
}

// Hash computes the canonical hash of the state. The machine maintains
// the same value incrementally during a hooked run; state_test holds
// the two computations equal.
func (ps *PersistentState) Hash() StateHash {
	var n1, n2, c1, c2 uint64
	for slot, arr := range ps.NVM {
		for i, v := range arr {
			h1, h2 := cellHash(int32(slot), i, v)
			n1 += h1
			n2 += h2
		}
	}
	for id, v := range ps.Counters {
		if v == 0 {
			continue
		}
		h1, h2 := ctrHash(id, v)
		c1 += h1
		c2 += h2
	}
	s1, s2 := snapshotLane(ps.Snap, ps.Out)
	return combineLanes(n1, n2, c1, c2, s1, s2)
}

// PointVisit is one schedulable injection point of a hooked run: a
// moment at which a PowerSchedule could kill the supply. Step and Saves
// are this run's own ordinals (they start at zero on a resumed run);
// Occurrence is the ordinal in the point kind's own space — the value a
// FailPoint of that kind would be addressed by. Hash is the canonical
// hash of the persistent state that would survive a failure at exactly
// this point.
type PointVisit struct {
	Kind       PointKind
	Step       int64
	Saves      int64
	Occurrence int64
	Hash       StateHash
}

// Hook observes every schedulable injection point of a run. capture
// materializes the persistent state at the visit as a deep copy — call
// it only when the state is worth keeping (it costs O(state), where the
// visit itself costs O(1)). A hooked run steps every instruction of the
// dispatch engine (each boundary is a visit) and returns the same
// Result as the unhooked run.
type Hook func(v PointVisit, capture func() *PersistentState)

// InitialState returns the persistent state a run of the module would
// start from before any execution: NVM initialized (with input
// overrides applied), no counters, no output, no snapshot — the root
// node of the crash-recovery state graph.
func InitialState(m *ir.Module, cfg Config) (*PersistentState, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Model == nil {
		return nil, &ConfigError{Field: "Model", Reason: "must not be nil"}
	}
	if m.FuncByName("main") == nil {
		return nil, ErrNoMain
	}
	mc := newMachine(m, cfg)
	return mc.captureState(), nil
}

// ---- machine-side capture ----

// captureState deep-copies the machine's current persistent state: what
// would survive if power failed right now.
func (mc *machine) captureState() *PersistentState {
	ps := &PersistentState{NVM: make([][]int64, len(mc.nvm))}
	for i, arr := range mc.nvm {
		ps.NVM[i] = append([]int64(nil), arr...)
	}
	for id, v := range mc.counters {
		if v == 0 {
			continue
		}
		if ps.Counters == nil {
			ps.Counters = make(map[int]int64, len(mc.counters))
		}
		ps.Counters[id] = v
	}
	sn := mc.snap
	if sn == nil {
		return ps
	}
	ps.Out = append([]int64(nil), mc.out[:sn.outLen]...)
	st := &SnapshotState{
		Frames:   make([]FrameState, len(sn.frames)),
		VMSlots:  append([]int32(nil), sn.vmSlots...),
		VMData:   make([][]int64, len(sn.vmData)),
		Restores: append([]int32(nil), sn.restores...),
		Lazy:     sn.lazy,
		Site:     sn.site,
		Done:     sn.done,
	}
	for i := range sn.frames {
		f := &sn.frames[i]
		st.Frames[i] = FrameState{
			Fn:      f.fn.Name,
			Block:   f.cb.IR.Name,
			PC:      f.pc,
			Regs:    append([]int64(nil), f.regs...),
			RetReg:  f.retReg,
			WantRet: f.wantRet,
		}
	}
	for i, d := range sn.vmData {
		st.VMData[i] = append([]int64(nil), d...)
	}
	ps.Snap = st
	return ps
}

// ---- machine-side incremental lanes ----

// recomputeLanes rebuilds every hash lane from scratch — run at boot
// and after a Resume install; every later mutation updates the lanes
// incrementally.
func (mc *machine) recomputeLanes() {
	mc.nvmLane1, mc.nvmLane2 = 0, 0
	for slot, arr := range mc.nvm {
		for i, v := range arr {
			h1, h2 := cellHash(int32(slot), i, v)
			mc.nvmLane1 += h1
			mc.nvmLane2 += h2
		}
	}
	mc.ctrLane1, mc.ctrLane2 = 0, 0
	for id, v := range mc.counters {
		if v == 0 {
			continue
		}
		h1, h2 := ctrHash(id, v)
		mc.ctrLane1 += h1
		mc.ctrLane2 += h2
	}
	mc.refreshSnapLane()
}

// refreshSnapLane recomputes the snapshot+output lane from the live
// snapshot. Called when a snapshot commits (takeSnapshot) — the only
// event that changes it.
func (mc *machine) refreshSnapLane() {
	sn := mc.snap
	if sn == nil {
		mc.snapLane1, mc.snapLane2 = coldTag, coldTag
		return
	}
	h := uint64(fnvOffset64)
	h = seqHash(h, uint64(len(sn.frames)))
	for i := range sn.frames {
		f := &sn.frames[i]
		h = seqHashString(h, f.fn.Name)
		h = seqHashString(h, f.cb.IR.Name)
		h = seqHash(h, uint64(f.pc))
		h = seqHash(h, uint64(len(f.regs)))
		for _, r := range f.regs {
			h = seqHash(h, uint64(r))
		}
		h = seqHash(h, uint64(f.retReg))
		if f.wantRet {
			h = seqHash(h, 1)
		} else {
			h = seqHash(h, 0)
		}
	}
	h = seqHash(h, uint64(len(sn.vmSlots)))
	for i, slot := range sn.vmSlots {
		h = seqHash(h, uint64(uint32(slot)))
		h = seqHash(h, uint64(len(sn.vmData[i])))
		for _, v := range sn.vmData[i] {
			h = seqHash(h, uint64(v))
		}
	}
	h = seqHash(h, uint64(len(sn.restores)))
	for _, slot := range sn.restores {
		h = seqHash(h, uint64(uint32(slot)))
	}
	if sn.lazy {
		h = seqHash(h, 1)
	} else {
		h = seqHash(h, 0)
	}
	h = seqHash(h, uint64(uint32(sn.site)))
	h = seqHash(h, uint64(sn.outLen))
	for _, v := range mc.out[:sn.outLen] {
		h = seqHash(h, uint64(v))
	}
	mc.snapLane1, mc.snapLane2 = h, mix64(h^laneSeed2)
}

// stateHash folds the live lanes into the canonical hash — the value
// PersistentState.Hash would compute for captureState().
func (mc *machine) stateHash() StateHash {
	return combineLanes(mc.nvmLane1, mc.nvmLane2, mc.ctrLane1, mc.ctrLane2, mc.snapLane1, mc.snapLane2)
}

// setNVM writes one NVM word, keeping the commutative lanes current.
func (mc *machine) setNVM(slot int32, idx int, val int64) {
	if mc.track {
		old := mc.nvm[slot][idx]
		if old != val {
			o1, o2 := cellHash(slot, idx, old)
			n1, n2 := cellHash(slot, idx, val)
			mc.nvmLane1 += n1 - o1
			mc.nvmLane2 += n2 - o2
		}
	}
	mc.nvm[slot][idx] = val
}

// commitSlot copies a VM image over its NVM home (a checkpoint commit),
// keeping the lanes current.
func (mc *machine) commitSlot(slot int32, src []int64) {
	dst := mc.nvm[slot]
	if !mc.track {
		copy(dst, src)
		return
	}
	for i, v := range src {
		if dst[i] == v {
			continue
		}
		o1, o2 := cellHash(slot, i, dst[i])
		n1, n2 := cellHash(slot, i, v)
		mc.nvmLane1 += n1 - o1
		mc.nvmLane2 += n2 - o2
		dst[i] = v
	}
}

// bumpCounter increments a conditional-checkpoint counter, keeping the
// counter lanes current.
func (mc *machine) bumpCounter(id int) int64 {
	v := mc.counters[id] + 1
	mc.counters[id] = v
	if mc.track {
		if v > 1 {
			o1, o2 := ctrHash(id, v-1)
			mc.ctrLane1 -= o1
			mc.ctrLane2 -= o2
		}
		n1, n2 := ctrHash(id, v)
		mc.ctrLane1 += n1
		mc.ctrLane2 += n2
	}
	return v
}

// visitPoint hands one schedulable injection point to the hook.
func (mc *machine) visitPoint(kind PointKind, occurrence int64) {
	mc.hook(PointVisit{
		Kind:       kind,
		Step:       mc.res.Steps,
		Saves:      mc.res.SaveAttempts,
		Occurrence: occurrence,
		Hash:       mc.stateHash(),
	}, mc.captureFn)
}

// ---- resume ----

// installResume overwrites the machine's persistent state with ps and
// performs the power-failure recovery boot: a run with Config.Resume
// behaves exactly like the continuation of a run that failed leaving ps
// in NVM.
func (mc *machine) installResume(ps *PersistentState) error {
	if len(ps.NVM) != len(mc.nvm) {
		return fmt.Errorf("emulator: resume state has %d NVM slots, module has %d (state captured from a different module?)",
			len(ps.NVM), len(mc.nvm))
	}
	for slot, arr := range ps.NVM {
		if len(arr) != len(mc.nvm[slot]) {
			return fmt.Errorf("emulator: resume state slot %d has %d elems, module wants %d",
				slot, len(arr), len(mc.nvm[slot]))
		}
		copy(mc.nvm[slot], arr)
	}
	for id, v := range ps.Counters {
		mc.counters[id] = v
	}
	if sn := ps.Snap; sn != nil {
		rebuilt := &snapshot{
			vmSlots:  append([]int32(nil), sn.VMSlots...),
			vmData:   make([][]int64, len(sn.VMData)),
			outLen:   len(ps.Out),
			done:     sn.Done,
			lazy:     sn.Lazy,
			site:     sn.Site,
			restores: append([]int32(nil), sn.Restores...),
		}
		n := int32(len(mc.nvm))
		for _, slot := range rebuilt.vmSlots {
			if slot < 0 || slot >= n {
				return fmt.Errorf("emulator: resume snapshot references slot %d, module has %d", slot, n)
			}
		}
		for _, slot := range rebuilt.restores {
			if slot < 0 || slot >= n {
				return fmt.Errorf("emulator: resume snapshot restores slot %d, module has %d", slot, n)
			}
		}
		for i, d := range sn.VMData {
			rebuilt.vmData[i] = append([]int64(nil), d...)
		}
		for i := range sn.Frames {
			f := &sn.Frames[i]
			fn := mc.mod.FuncByName(f.Fn)
			if fn == nil {
				return fmt.Errorf("emulator: resume snapshot references unknown function %q", f.Fn)
			}
			blk := fn.BlockByName(f.Block)
			if blk == nil {
				return fmt.Errorf("emulator: resume snapshot references unknown block %s.%s", f.Fn, f.Block)
			}
			if f.PC < 0 || f.PC > len(blk.Instrs) {
				return fmt.Errorf("emulator: resume snapshot pc %d out of range in %s.%s", f.PC, f.Fn, f.Block)
			}
			rebuilt.frames = append(rebuilt.frames, frame{
				fn:      fn,
				cb:      mc.prog.BlockOf(blk),
				pc:      f.PC,
				regs:    append([]int64(nil), f.Regs...),
				retReg:  f.RetReg,
				wantRet: f.WantRet,
			})
		}
		mc.out = append(mc.out[:0], ps.Out...)
		mc.snap = rebuilt
		mc.done = sn.Done
		mc.furthest = sn.Done
		mc.maxSnapDone = sn.Done
		if mc.track {
			mc.recomputeLanes()
		}
		// The recovery boot proper: rebuild volatile state from the
		// snapshot and charge the restore — the same path a mid-run power
		// failure takes (restoreSnap), so a resumed run is bit-identical
		// to the continuation of the failed one.
		mc.restoreSnap()
		return nil
	}
	if len(ps.Out) > 0 {
		return fmt.Errorf("emulator: resume state has committed output but no snapshot")
	}
	// Cold resume: NVM (and counters) carry over, execution restarts
	// from main. The machine is already booted that way; only the lanes
	// need the overwritten NVM.
	if mc.track {
		mc.recomputeLanes()
	}
	return nil
}
