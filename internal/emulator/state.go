package emulator

import (
	"fmt"
	"maps"
	"math"
	"slices"

	"schematic/internal/ir"
)

// This file makes the machine's persistent state — everything that
// survives a power failure — a first-class, resumable value. A
// PersistentState is what the device would find in NVM after the supply
// died: the variables' NVM homes, the conditional-checkpoint counters,
// the committed output prefix, and the committed recovery-point
// snapshot (or nothing, for a cold start). Config.Resume boots a run
// from such a value exactly as powerFailure would, and Config.Hook
// exposes every schedulable injection point of a run, in windows of
// unchanged persistent state, together with a canonical 128-bit hash of
// that state — the two primitives the bounded model checker in
// internal/verify is built on (DiVM-style hash compaction over resume
// states). The hook is also offered a full-state key at the commits
// where runs join, and may end the run there, which lets the checker
// stop a run that rejoins a trajectory it has already explored.

// StateHash is the canonical 128-bit hash of a PersistentState. Two
// states of the same module with equal persistent content hash equal,
// regardless of how execution arrived at them; any NVM word, counter,
// committed-output, or snapshot difference changes it (modulo the
// 2^-128-ish collision probability hash compaction accepts).
type StateHash [2]uint64

func (h StateHash) String() string { return fmt.Sprintf("%016x%016x", h[0], h[1]) }

// PersistentState is the machine state that survives a power failure:
// the variables' NVM homes (indexed by the program's slot table), the
// conditional-checkpoint counters, the committed output prefix (output
// past the snapshot's mark is lost with the volatile state), and the
// committed recovery point, a copy of the machine's own snapshot, or
// none before the first commit, when resume is a cold restart. It is
// opaque and bound to the program it was captured from: only
// InitialState and a Hook's capture make one, and Config.Resume takes
// it only for that module, unedited. A run never changes the state it
// resumes from, so one state can seed any number of runs, in parallel.
//
// A hooked run's captures and the hooked runs resumed from a state
// share NVM words with it, slot by slot, copy-on-write: a state's words
// are never written, and a machine copies a shared slot before its
// first write to it. A state also carries its NVM and counter lanes
// (see hashing), so a hooked resume does not rehash NVM.
type PersistentState struct {
	nvm      [][]int64
	counters map[int]int64
	out      []int64
	snap     *snapshot
	bound    binding
	sums     laneSums
}

// clone deep-copies the state: an unhooked capture or resume, and the
// tests, share nothing with it.
func (ps *PersistentState) clone() *PersistentState {
	cp := ps.share()
	for slot, words := range cp.nvm {
		cp.nvm[slot] = slices.Clone(words)
	}
	return cp
}

// share copies the state but for its NVM words, which the copy shares.
func (ps *PersistentState) share() *PersistentState {
	cp := &PersistentState{
		nvm:      slices.Clone(ps.nvm),
		counters: maps.Clone(ps.counters),
		out:      slices.Clone(ps.out),
		bound:    ps.bound,
		sums:     ps.sums,
	}
	if sn := ps.snap; sn != nil {
		s := *sn
		s.frames = slices.Clone(sn.frames)
		for i := range s.frames {
			s.frames[i].regs = slices.Clone(s.frames[i].regs)
		}
		s.vmSlots = slices.Clone(sn.vmSlots)
		s.vmData = cloneWords(sn.vmData)
		s.vmLanes = slices.Clone(sn.vmLanes)
		s.restores = slices.Clone(sn.restores)
		cp.snap = &s
	}
	return cp
}

// cloneWords deep-copies a table of word arrays.
func cloneWords(src [][]int64) [][]int64 {
	out := make([][]int64, len(src))
	for i, a := range src {
		out[i] = slices.Clone(a)
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
//     (frames by block ordinal, VM image, restore list in stored order)
//     and the committed output prefix, recomputed when a snapshot
//     commits — rare next to instruction steps. Each VM-image entry
//     enters it as its own 64-bit per-slot lane, vmLane(slot, words), so
//     the machine rehashes only the slots written since a previous
//     commit hashed them.

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

// vmLane hashes one VM-image entry of a snapshot: its slot and words.
func vmLane(slot int32, data []int64) uint64 {
	h := seqHash(fnvOffset64, uint64(uint32(slot)))
	h = seqHash(h, uint64(len(data)))
	for _, v := range data {
		h = seqHash(h, uint64(v))
	}
	return h
}

// snapshotLane hashes a committed snapshot plus the committed output
// prefix sequentially, from scratch: each frame by its block's ordinal,
// and each VM-image entry from its words. Done is deliberately excluded
// (bookkeeping, not behavior); everything else in the snapshot is
// behavioral.
func snapshotLane(sn *snapshot, out []int64) (uint64, uint64) {
	if sn == nil {
		return coldTag, coldTag
	}
	h := uint64(fnvOffset64)
	h = seqHash(h, uint64(len(sn.frames)))
	for i := range sn.frames {
		f := &sn.frames[i]
		h = seqHash(h, uint64(f.cb.ID()))
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
		h = seqHash(h, vmLane(slot, sn.vmData[i]))
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
	h = seqHash(h, uint64(len(out)))
	for _, v := range out {
		h = seqHash(h, uint64(v))
	}
	return h, mix64(h ^ laneSeed2)
}

// laneSums are the two commutative lanes, the NVM lane and the counter
// lane, 128 bits each.
type laneSums struct{ nvm1, nvm2, ctr1, ctr2 uint64 }

// sumLanes computes the commutative lanes over every word and counter.
func sumLanes(nvm [][]int64, counters map[int]int64) laneSums {
	var s laneSums
	for slot, arr := range nvm {
		for i, v := range arr {
			h1, h2 := cellHash(int32(slot), i, v)
			s.nvm1 += h1
			s.nvm2 += h2
		}
	}
	for id, v := range counters {
		if v == 0 {
			continue
		}
		h1, h2 := ctrHash(id, v)
		s.ctr1 += h1
		s.ctr2 += h2
	}
	return s
}

// combineLanes folds the three lanes into the final 128-bit hash.
func combineLanes(s laneSums, snap1, snap2 uint64) StateHash {
	return StateHash{
		mix64(s.nvm1 ^ mix64(s.ctr1^mix64(snap1))),
		mix64(s.nvm2 ^ mix64(s.ctr2^mix64(snap2))),
	}
}

// Hash computes the canonical hash of the state from its contents, not
// from the lanes it carries. The machine maintains the same value
// incrementally during a hooked run; state_test holds the two
// computations equal.
func (ps *PersistentState) Hash() StateHash {
	s1, s2 := snapshotLane(ps.snap, ps.out)
	return combineLanes(sumLanes(ps.nvm, ps.counters), s1, s2)
}

// PointVisit is one window of a hooked run: the longest run of
// consecutive schedulable injection points — moments at which a
// PowerSchedule could kill the supply — with no persistent-state change
// between them, so a failure at any of them leaves the same state.
// Kind, Step and Saves describe the window's first point. They are this
// run's own ordinals (they start at zero on a resumed run); a FailPoint
// addresses a step point by Step and a save point by Saves. Span is the
// number of points in the window, at least 1; the others follow the
// first in execution order. Hash is the canonical hash of the
// persistent state a failure at any point of the window leaves.
type PointVisit struct {
	Kind  PointKind
	Step  int64
	Saves int64
	Span  int64
	Hash  StateHash
}

// Hook observes a run (Config.Hook).
//
// Window observes every schedulable injection point of the run, one
// window at a time (see PointVisit); it must not be nil. The machine
// calls it when a window closes: just before an NVM word, a
// conditional-checkpoint counter or the committed snapshot changes, and
// at run end. A power failure changes no persistent state, so a window
// can straddle one. capture materializes the window's persistent state,
// sharing the NVM words the run has not changed (see PersistentState)
// — call it only when the state is worth keeping (it costs O(slots)
// plus a copy of the snapshot, where the visit itself costs O(1)).
//
// Commit, when non-nil, is offered a key at the commits of an
// exhaustion run (no schedule member besides the capacitor, and no
// supply) where runs join: the first commit after the run boots or
// resumes, after each power failure and after each sleep refill, when
// the commit does not close the run (see CommitVisit and offerKey).
// Returning true ends the run there, before the commit's after-save
// point: the Result then covers only the run so far, with verdict
// Stopped. A run whose hook never stops it batches exactly where the
// unhooked run batches, and returns the same Result.
type Hook struct {
	Window func(v PointVisit, capture func() *PersistentState)
	Commit func(c CommitVisit) (stop bool)
}

// CommitVisit is a hooked run's offer at a checkpoint commit: the first
// after boot or resume, after a power failure or after a sleep refill
// (see Hook). Key is the full-state key: the persistent state's hash
// folded with the volatile state the rest of an exhaustion run reads
// (see fullKey), so two commits with equal keys run the same rest — the
// same windows, the same steps, failures and unsynced reads, to the
// same end — up to the step and failure caps, which count from the
// run's start. Steps, PowerFailures and UnsyncedReads are the run's
// counts so far.
type CommitVisit struct {
	Key           StateHash
	Steps         int64
	PowerFailures int
	UnsyncedReads int
}

// InitialState returns the persistent state a run of the module would
// start from before any execution: NVM initialized (with input
// overrides applied), no counters, no output, no snapshot — the root
// node of the crash-recovery state graph.
func InitialState(m *ir.Module, cfg Config) (*PersistentState, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if m.FuncByName("main") == nil {
		return nil, ErrNoMain
	}
	// Nothing executes, so there is nothing to count.
	cfg.Counts = nil
	mc, err := newMachine(m, cfg)
	if err != nil {
		return nil, err
	}
	return mc.captureState(), nil
}

// ---- capture and resume ----

// captureState copies the machine's current persistent state: what
// would survive if power failed right now. A hooked run's capture shares
// the NVM words and carries the live lanes, and from then on the machine
// owns no slot (see ownNVM). An unhooked capture, InitialState's, is a
// deep copy that sums its lanes once.
func (mc *machine) captureState() *PersistentState {
	live := PersistentState{nvm: mc.nvm, counters: mc.counters, snap: mc.snap, bound: binding{mc.prog}}
	if mc.snap != nil {
		live.out = mc.out[:mc.snap.outLen]
	}
	if !mc.track {
		ps := live.clone()
		ps.sums = sumLanes(ps.nvm, ps.counters)
		return ps
	}
	live.sums = mc.h.sums
	clear(mc.h.owned)
	return live.share()
}

// resume boots the machine from ps as the power failure that left ps
// behind would reboot it: with ps's NVM, counters and committed output,
// then a cold restart from main when no checkpoint has committed, and
// otherwise the recovery boot from the snapshot (restoreSnap), each
// frame in the running program's copy of its block. The machine boots
// from its own copy, so ps stays as it was: a hooked run's copy shares
// ps's NVM words, owns none of them, and takes ps's lanes.
func (mc *machine) resume(ps *PersistentState) {
	copyOf := ps.clone
	if mc.track {
		copyOf = ps.share
		mc.h.sums = ps.sums
	}
	st := copyOf()
	mc.nvm, mc.counters = st.nvm, st.counters
	sn := st.snap
	if sn == nil {
		mc.bootFrames()
		return
	}
	for i := range sn.frames {
		sn.frames[i].cb = mc.prog.BlockOf(sn.frames[i].cb.IR)
	}
	mc.out, mc.snap = st.out, sn
	mc.furthest, mc.maxSnapDone = sn.done, sn.done
	mc.restoreSnap()
}

// ---- machine-side incremental lanes ----
//
// A hooked run's lanes start from the state it boots from: summed over
// the initial NVM (initNVM) or carried by the resumed state, and the
// snapshot lane refreshed once the machine has booted. Every later
// mutation updates them incrementally.

// refreshSnapLane recomputes the snapshot+output lane from the live
// snapshot: each frame by its block's ordinal, the VM image from the
// per-slot lanes the snapshot recorded. Called when a snapshot commits
// (takeSnapshot) — the only event that changes it — and at boot.
func (mc *machine) refreshSnapLane() {
	hk := mc.h
	hk.hashOK = false
	sn := mc.snap
	if sn == nil {
		hk.snapLane1, hk.snapLane2 = coldTag, coldTag
		return
	}
	h := uint64(fnvOffset64)
	h = seqHash(h, uint64(len(sn.frames)))
	for i := range sn.frames {
		f := &sn.frames[i]
		h = seqHash(h, uint64(f.cb.ID()))
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
	for _, lane := range sn.vmLanes {
		h = seqHash(h, lane)
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
	hk.snapLane1, hk.snapLane2 = h, mix64(h^laneSeed2)
}

// recordLane returns the VM-image lane of the slot's current words,
// src, which a committing snapshot records: the cached lane when no VM
// store (a dirty mark, or the stale mark a save turns it into),
// materialization, eviction or NVM store has touched the slot since it
// was last hashed.
func (mc *machine) recordLane(slot int32, src []int64) uint64 {
	if mc.stale[slot] || mc.dirty[slot] {
		mc.h.slotLane[slot] = vmLane(slot, src)
		mc.stale[slot] = false
	}
	return mc.h.slotLane[slot]
}

// stateHash folds the live lanes into the canonical hash — the value
// PersistentState.Hash would compute for captureState() — and keeps
// the fold until a lane moves.
func (mc *machine) stateHash() StateHash {
	h := mc.h
	if !h.hashOK {
		h.hashed = combineLanes(h.sums, h.snapLane1, h.snapLane2)
		h.hashOK = true
	}
	return h.hashed
}

// fullKey is the full-state key a commit offers (CommitVisit.Key): the
// persistent hash folded with the volatile state the rest of an
// exhaustion run reads. At a commit the live frames and output equal the
// snapshot's, which the persistent hash covers. The rest is folded in
// two independently seeded lanes: the capacitor level's bits; each VM
// resident's lane, and each slot's pending and dirty marks; the progress
// indices and the open re-execution span; the forward-progress
// watchdogs; and whether a failure has happened yet, which arms the
// snapshot watchdog. Cycle counts, the charge ordinal and the recycled
// buffers are read only by schedules, supplies and observers.
func (mc *machine) fullKey() StateHash {
	k1, k2 := uint64(fnvOffset64), uint64(laneSeed1)
	fold := func(x uint64) {
		k1 = seqHash(k1, x)
		k2 = seqHash(k2, x^laneSeed2)
	}
	fold(math.Float64bits(mc.store.level))
	for slot, arr := range mc.vm {
		resident := arr != nil
		if !resident && !mc.pending[slot] {
			continue
		}
		fold(uint64(slot)<<3 | uint64(b2i(resident))<<2 | uint64(b2i(mc.pending[slot]))<<1 | uint64(b2i(mc.dirty[slot])))
		if resident {
			fold(mc.recordLane(int32(slot), arr))
		}
	}
	fold(^uint64(0)) // ends the slot list: no slot tag has every bit set
	fold(uint64(mc.done))
	fold(uint64(mc.furthest))
	if mc.inReexec {
		fold(uint64(uint32(mc.reexecSite)))
	} else {
		fold(^uint64(0))
	}
	fold(uint64(mc.stagnation))
	fold(uint64(mc.lastFailFurthest))
	fold(uint64(mc.maxSnapDone))
	fold(uint64(mc.snapStagnation))
	fold(uint64(b2i(mc.res.PowerFailures > 0)))
	p := mc.stateHash()
	return StateHash{mix64(p[0] ^ mix64(k1)), mix64(p[1] ^ mix64(k2))}
}

// offerKey offers Hook.Commit the run's full-state key at a commit that
// did not close the run, and stops the run when the hook says so. Only
// the first commit after boot or resume, a power failure or a sleep
// refill offers: the first commit, or one where the run's failures plus
// sleeps have moved since its last offer. Each of those events sets the
// capacitor to one level in every run that passes it, and the key folds
// the level in, so that is where runs meet: the model checker's golden
// cases merge as many runs with this rule as with a key at every commit
// (internal/verify's TestVerifyGolden). A key not offered can cost a
// merge, never a count. A schedule member or a supply carries state the
// key does not cover, so only an exhaustion run offers one.
func (mc *machine) offerKey() {
	h := mc.h
	joins := mc.res.PowerFailures + mc.res.Sleeps
	if joins == h.joins || h.hook.Commit == nil || mc.halted || mc.sched != nil || mc.store.supply != nil {
		return
	}
	h.joins = joins
	c := CommitVisit{Key: mc.fullKey(), Steps: mc.res.Steps,
		PowerFailures: mc.res.PowerFailures, UnsyncedReads: mc.res.UnsyncedReads}
	if h.hook.Commit(c) {
		mc.close(Stopped)
	}
}

// moveNVMLanes swaps one NVM word's old contribution to the commutative
// lanes for its new one. The caller writes the word next, so the open
// window closes first, still at the old state.
func (mc *machine) moveNVMLanes(slot int32, idx int, old, val int64) {
	mc.closeWindow()
	h := mc.h
	o1, o2 := cellHash(slot, idx, old)
	n1, n2 := cellHash(slot, idx, val)
	h.sums.nvm1 += n1 - o1
	h.sums.nvm2 += n2 - o2
	h.hashOK = false
}

// ownNVM returns the slot's NVM words for a hooked write, first copying
// them when a PersistentState shares them. The window that closes before
// the write may capture the state, which shares every slot again, so
// each write owns its slot after moveNVMLanes.
func (mc *machine) ownNVM(slot int32) []int64 {
	if h := mc.h; !h.owned[slot] {
		h.owned[slot] = true
		mc.nvm[slot] = slices.Clone(mc.nvm[slot])
	}
	return mc.nvm[slot]
}

// setNVM writes one NVM word, keeping the commutative lanes current.
// The word is the slot's VM-image source while the slot is not
// resident, so the write also marks its lane stale. A hooked write of
// the value already there writes nothing: the words may be shared.
func (mc *machine) setNVM(slot int32, idx int, val int64) {
	if !mc.track {
		mc.nvm[slot][idx] = val
		return
	}
	if old := mc.nvm[slot][idx]; old != val {
		mc.moveNVMLanes(slot, idx, old, val)
		mc.stale[slot] = true
		mc.ownNVM(slot)[idx] = val
	}
}

// commitSlot copies a resident slot's VM image over its NVM home (a
// checkpoint commit), keeping the lanes current. The slot's VM-image
// lane stands: a snapshot records a resident slot's VM words, which the
// commit only copies. A hooked commit writes only the words that
// change.
func (mc *machine) commitSlot(slot int32, src []int64) {
	dst := mc.nvm[slot]
	if !mc.track {
		copy(dst, src)
		return
	}
	for i, v := range src {
		if dst[i] != v {
			mc.moveNVMLanes(slot, i, dst[i], v)
			dst = mc.ownNVM(slot)
			dst[i] = v
		}
	}
}

// bumpCounter increments a conditional-checkpoint counter, keeping the
// counter lanes current.
func (mc *machine) bumpCounter(id int) int64 {
	v := mc.counters[id] + 1
	if mc.track {
		mc.closeWindow()
		h := mc.h
		if v > 1 {
			o1, o2 := ctrHash(id, v-1)
			h.sums.ctr1 -= o1
			h.sums.ctr2 -= o2
		}
		n1, n2 := ctrHash(id, v)
		h.sums.ctr1 += n1
		h.sums.ctr2 += n2
		h.hashOK = false
	}
	mc.counters[id] = v
	return v
}

// openWindow starts the hook's next window at the current step count.
// Every instruction boundary is one step point, so the window's step
// points are the steps numbered past winFrom and need no count of their
// own; visitSave counts its save points in winSaves. win is its first
// point: the next step point, unless a save point comes first. A save
// attempt always begins with a save point, so a first step point
// carries the save ordinal counted here.
func (mc *machine) openWindow() {
	h, s := mc.h, mc.res.Steps
	h.win = PointVisit{Kind: PointStep, Step: s + 1, Saves: mc.res.SaveAttempts}
	h.winFrom, h.winSaves = s, 0
}

// visitSave counts one save-phase injection point into the open window.
func (mc *machine) visitSave(kind PointKind) {
	h := mc.h
	if mc.res.Steps == h.winFrom && h.winSaves == 0 {
		h.win = PointVisit{Kind: kind, Step: mc.res.Steps, Saves: mc.res.SaveAttempts}
	}
	h.winSaves++
}

// closeWindow hands the open window, if it holds any point, to the hook
// and opens the next. Every caller runs it just before the persistent
// state changes, or at run end, with res.Steps current, so the state it
// hashes and captures is the one each of the window's points would
// leave.
func (mc *machine) closeWindow() {
	h := mc.h
	v := h.win
	v.Span = mc.res.Steps - h.winFrom + h.winSaves
	if v.Span == 0 {
		return
	}
	v.Hash = mc.stateHash()
	mc.openWindow()
	h.hook.Window(v, h.captureFn)
}
