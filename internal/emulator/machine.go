package emulator

import (
	"errors"
	"fmt"

	"schematic/internal/emulator/dispatch"
	"schematic/internal/ir"
)

// errInterrupt aborts the current instruction after a power failure or a
// closing verdict occurred mid-execution; the machine state has already
// been redirected.
var errInterrupt = errors.New("emulator: instruction interrupted")

// maxStagnation is the number of consecutive power failures without new
// forward progress after which the run is declared stuck. The power model
// is deterministic, so a genuinely trapped execution stagnates immediately;
// the slack tolerates trigger-style checkpoints firing late.
const maxStagnation = 8

type frame struct {
	fn      *ir.Func
	cb      *dispatch.Block // the executing block; cb.IR is its IR form
	pc      int
	regs    []int64
	retReg  ir.Reg
	wantRet bool
}

type snapshot struct {
	frames []frame // deep copies
	// vmSlots/vmData are the VM image to rebuild on rollback, deduplicated,
	// in first-appearance order of the restore list — a deterministic
	// order, so restore charging and VM residency replay identically.
	vmSlots  []int32
	vmData   [][]int64
	vmLanes  []uint64 // vmLane of each vmData entry; hooked runs only
	outLen   int
	done     int64
	lazy     bool
	site     int     // checkpoint site that took the snapshot
	restores []int32 // slots whose restore is charged on rollback
}

type machine struct {
	mod     *ir.Module
	prog    *dispatch.Program
	cfg     Config
	res     Result
	store   store   // the capacitor, split out of the resolved schedule
	charges int64   // the draws charge made; with batched, the run's charge ordinal (ordinal)
	draw    float64 // the refused draw, nJ, while refused

	// obs is Config.Observer; nil on an unobserved run. Every emission
	// site guards on nil so an unobserved run constructs no events at all.
	// perInstr, among the flags below, is set when obs reads EvCharge and
	// EvBlockEnter: when it did not opt out of them (Attributor). attr is
	// the Attribution such an observer asked the machine to fill in their
	// place, or nil.
	obs  Observer
	attr *Attribution
	// counts is Config.Counts, bound to this module; nil when the run is
	// not counted. batched counts the instructions execBatch ran.
	counts  *Counts
	batched int64
	// visit is where the batch's current block visit started, kept on
	// attributed runs only (see attributeVisit).
	visit blockVisit
	// curSite is the checkpoint site currently executing, -1 outside
	// execCheckpoint; save/restore charges are attributed to it.
	curSite int
	// reexecSite is the site the open re-execution span resumed from
	// (see inReexec).
	reexecSite int

	// Variable storage is indexed by the program's slot table: nvm holds
	// every variable's persistent home; vm[slot] is non-nil while the
	// variable is VM-resident. pending marks VM variables whose
	// post-rollback restore cost has not been charged yet (ALFRED's
	// deferred restoration); dirty marks VM variables written since their
	// last save. A slot's current words (the VM copy when resident, else
	// the NVM home) may differ from the VM-image lane a hooked run caches
	// (hooked.slotLane) while it is dirty or stale: a VM store marks it
	// dirty, and a save that clears the dirty mark, materialization,
	// eviction and, on hooked runs, an NVM store mark it stale.
	nvm     [][]int64
	vm      [][]int64
	pending []bool
	dirty   []bool
	stale   []bool
	// vmSpare recycles evicted VM arrays slot-by-slot: clearVM parks each
	// resident array here instead of dropping it, and the next
	// materialization of the same slot reuses it (same variable, same
	// size). Recovery-heavy intermittent runs would otherwise reallocate
	// the whole working set on every power failure.
	vmSpare [][]int64
	// seen is a per-machine scratch bitmap over slots (snapshot dedup).
	seen []bool
	// slotScratch1/slotScratch2 back the checkpoint runtimes' save and
	// restore sets: saveSet fills the first, residentSlots/restoreSet the
	// second. The sets live only for the duration of one checkpoint
	// execution (takeSnapshot copies what it keeps), so two buffers cover
	// every runtime without aliasing.
	slotScratch1 []int32
	slotScratch2 []int32
	// counters holds conditional-checkpoint iteration counters; they live
	// in NVM and survive power failures (Algorithm 1).
	counters map[int]int64

	frames []frame
	out    []int64
	// regPool recycles register arrays across call/return pairs and
	// recoveries; entries are zeroed on reuse, so a pooled frame is
	// indistinguishable from a freshly allocated one.
	regPool [][]int64

	done     int64 // logical progress index along the execution
	furthest int64 // high-water mark of done
	snap     *snapshot
	// spareSnap is the previous recovery point, kept as a shell whose
	// buffers the next takeSnapshot cannibalizes (ping-pong). Safe because
	// nothing aliases a snapshot's storage: restores deep-copy out of it,
	// and it is only recycled once a newer snapshot has replaced it.
	spareSnap        *snapshot
	lastFailFurthest int64
	// Snapshot-progress watchdog (paper §VI: detect restarting "from the
	// same checkpoint twice"): recovery points must eventually advance
	// past the furthest previously snapshotted position, or the execution
	// is livelocked even if individual failures jitter.
	maxSnapDone int64
	// stagnation and snapStagnation count toward the two watchdogs'
	// bounds, maxStagnation and 64.
	stagnation, snapStagnation int32

	vmBytes int

	// cyclesSincePower counts active cycles since the last replenishment,
	// for the Periodic schedule.
	cyclesSincePower int64

	// sched is the run's resolved PowerSchedule without its capacitor
	// member (nil on default runs), and next where it next fails: taken
	// at boot and whenever a probe reaches it, nowhere without sched.
	sched PowerSchedule
	next  horizon

	// h is what a hooked run keeps (Config.Hook); nil on an unhooked run.
	h *hooked

	// The flags share one word, which keeps the machine within its
	// allocation size class (TestMachineSizeClass).
	perInstr bool
	refused  bool // the last charge was refused; the power failure reports it
	// inReexec is set while a re-execution span is open: work repeated
	// between a recovery point and the previous high-water mark.
	inReexec bool
	halted   bool // a final verdict other than Completed has been reached
	// track is set exactly when h is: every NVM write, counter bump, and
	// snapshot commit then updates h's lanes so each injection point's
	// state hash costs O(1).
	track bool
}

// hooked is the state only a hooked run keeps. It sits behind a pointer
// so an unhooked run's machine carries none of it.
type hooked struct {
	hook      *Hook
	captureFn func() *PersistentState
	// sums are the commutative 128-bit sums over per-cell hashes of NVM
	// and the counters (order-independent, incrementally updated);
	// snapLane is the sequential hash of the committed snapshot + output
	// prefix, recomputed only when a snapshot commits. hashed is their
	// fold, current while hashOK.
	sums                 laneSums
	snapLane1, snapLane2 uint64
	hashed               StateHash
	hashOK               bool
	// joins is the run's power failures plus sleeps at its last offer,
	// -1 before the first (see offerKey).
	joins int
	// win, winFrom and winSaves are the open window of injection points
	// the hook has not seen yet (see openWindow).
	win      PointVisit
	winFrom  int64
	winSaves int64
	// slotLane caches each slot's VM-image lane (see recordLane).
	slotLane []uint64
	// owned marks the slots whose NVM words the machine has copied since
	// the last capture or resume. The others' words are shared with a
	// PersistentState, and the machine copies them before it writes one
	// (ownNVM).
	owned []bool
}

// newMachine boots a machine for one run: fresh, from the initial NVM
// (with input overrides and the optional prewarm), or from
// Config.Resume. Only then does a hooked run compute its lanes and open
// its first window.
func newMachine(m *ir.Module, cfg Config) (*machine, error) {
	prog := dispatch.For(m, cfg.Model)
	if cfg.Resume != nil {
		if err := cfg.Resume.bound.check("Resume", m, prog); err != nil {
			return nil, err
		}
	}
	if cfg.Counts != nil {
		if err := cfg.Counts.bindTo(m, prog); err != nil {
			return nil, err
		}
	}
	attr, optOut := attributionOf(cfg.Observer)
	if attr != nil {
		if err := attr.bindTo(m, prog); err != nil {
			return nil, err
		}
	}
	n := len(prog.Vars)
	mc := &machine{
		mod:      m,
		prog:     prog,
		cfg:      cfg,
		obs:      cfg.Observer,
		attr:     attr,
		counts:   cfg.Counts,
		curSite:  -1,
		vm:       make([][]int64, n),
		pending:  make([]bool, n),
		dirty:    make([]bool, n),
		stale:    make([]bool, n),
		vmSpare:  make([][]int64, n),
		seen:     make([]bool, n),
		counters: map[int]int64{},
	}
	mc.perInstr = cfg.Observer != nil && !optOut
	var c *Capacitor
	c, mc.sched = splitExhaustion(cfg)
	mc.store = newStore(c, cfg.EB)
	mc.next = nowhere()
	if mc.sched != nil {
		mc.next = mc.sched.horizon()
	}
	if cfg.Hook != nil {
		mc.track = true
		mc.h = &hooked{hook: cfg.Hook, slotLane: make([]uint64, n), owned: make([]bool, n), joins: -1}
		mc.h.captureFn = mc.captureState
		for slot := range mc.stale {
			mc.stale[slot] = true // no lane is cached yet
		}
	}
	if cfg.Resume != nil {
		mc.resume(cfg.Resume)
	} else {
		mc.initNVM()
		if cfg.PrewarmVM {
			mc.prewarmVM()
		}
		mc.bootFrames()
	}
	if mc.track {
		mc.refreshSnapLane()
		mc.openWindow()
	}
	return mc, nil
}

// slot resolves a variable's storage slot. The program's fingerprint
// validation guarantees every variable the module references is in the
// slot table, so a miss is an invariant violation, not a user error.
func (mc *machine) slot(v *ir.Var) int32 {
	s, ok := mc.prog.SlotOf(v)
	if !ok {
		panic(fmt.Sprintf("emulator: variable %s missing from compiled slot table (module mutated mid-run?)", v.Name))
	}
	return s
}

// prewarmVM materializes every block-allocated VM variable from its NVM
// home before execution starts, free of charge — the "all data already
// in VM" precondition of reference measurements. Without it a module
// that allocates variables to VM but has no checkpoints (nothing to
// restore them) would read poison. Variables are visited per block in
// the deterministic name order, so an overflowing prewarm always
// overflows on the same variable.
func (mc *machine) prewarmVM() {
	for _, f := range mc.mod.Funcs {
		for _, b := range f.Blocks {
			if len(b.Alloc) == 0 {
				continue
			}
			for _, slot := range mc.prog.NameOrder {
				v := mc.prog.Vars[slot]
				if !b.InVM(v) || mc.vm[slot] != nil {
					continue
				}
				if !mc.addVMResident(slot, append([]int64(nil), mc.nvm[slot]...)) {
					return
				}
			}
		}
	}
}

// initNVM loads every variable's NVM home with its initial data, applying
// input overrides. Runs once per emulation: NVM persists across failures.
func (mc *machine) initNVM() {
	mc.nvm = make([][]int64, len(mc.prog.Vars))
	for slot, v := range mc.prog.Vars {
		data := make([]int64, v.Elems)
		copy(data, v.Init)
		if in, ok := mc.cfg.Inputs[v.Name]; ok && v.Input {
			copy(data, in)
		}
		mc.nvm[slot] = data
	}
	if mc.track {
		mc.h.sums = sumLanes(mc.nvm, mc.counters)
		for slot := range mc.h.owned {
			mc.h.owned[slot] = true
		}
	}
}

func (mc *machine) bootFrames() {
	mainFn := mc.mod.FuncByName("main")
	cf := mc.prog.FuncOf(mainFn)
	mc.frames = []frame{{
		fn:   mainFn,
		cb:   cf.Entry,
		regs: make([]int64, mainFn.NumRegs),
	}}
	if mc.counts != nil {
		mc.counts.calls[cf.ID()]++
	}
	if mc.attr != nil || mc.perInstr {
		mc.entered(mainFn, cf.Entry, true)
	}
}

// entered books an executed entry into block cb of fn, a frame push when
// call is set: for the observer's attribution, or as an EvBlockEnter.
// Replays of a restored stack do not come through here. Callers check
// for either first, so an unobserved run makes no call.
func (mc *machine) entered(fn *ir.Func, cb *dispatch.Block, call bool) {
	if mc.attr != nil {
		mc.attr.block(cb.ID(), fn, cb.IR).Entries++
	}
	if mc.perInstr {
		mc.emit(Event{Kind: EvBlockEnter, Fn: fn, Block: cb.IR, BlockID: cb.ID(), Call: call})
	}
}

func (mc *machine) top() *frame { return &mc.frames[len(mc.frames)-1] }

// newRegs returns a zeroed register array of the given size, reusing a
// pooled one when it fits.
func (mc *machine) newRegs(n int) []int64 {
	if l := len(mc.regPool); l > 0 {
		r := mc.regPool[l-1]
		if cap(r) >= n {
			mc.regPool = mc.regPool[:l-1]
			r = r[:n]
			for i := range r {
				r[i] = 0
			}
			return r
		}
	}
	return make([]int64, n)
}

// emit stamps the event with the current cycle and step counters and
// hands it to the observer. Callers guard on mc.obs != nil so the
// unobserved fast path constructs no Event values.
func (mc *machine) emit(e Event) {
	e.Cycle = mc.res.TotalCycles
	e.Step = mc.res.Steps
	mc.obs.Event(e)
}

// chargeKind selects the ledger bucket of a charge. The access kinds are
// computation charges that additionally feed the Fig. 7 sub-split.
type chargeKind int

const (
	chComp chargeKind = iota
	chVMAcc
	chNVMAcc
	chSave
	chRestore
)

// charge attempts to draw e nJ from the capacitor. It returns false when a
// power failure occurs instead (intermittent mode only); the caller must
// then abandon the current operation. A failure here is the capacitor's
// refusal, or a replay of one: never an injection. Every call is one
// charge ordinal, and a replayed refusal that meets the capacitor's own
// coalesces with it. execBatch draws without calling it, one draw per
// batched instruction, which ordinal counts.
func (mc *machine) charge(e float64, kind chargeKind) bool {
	mc.charges++
	mc.store.harvest(mc.res.TotalCycles)
	level := mc.store.level
	refuse := mc.store.enforce && level+chargeEpsilon < e
	if n := mc.ordinal(); n >= mc.next.at[PointCharge] {
		mc.reach(PointCharge, n)
		refuse = true
	}
	if refuse {
		mc.refused, mc.draw = true, e
		return false
	}
	mc.store.level = clamp(level-e, mc.store.capacity)
	var class ChargeClass
	switch kind {
	case chSave:
		mc.res.Energy.Save += e
		class = ChargeSave
	case chRestore:
		mc.res.Energy.Restore += e
		class = ChargeRestore
	default:
		if mc.done < mc.furthest {
			mc.res.Energy.Reexecution += e
			class = ChargeReexec
		} else {
			mc.res.Energy.Computation += e
			switch kind {
			case chVMAcc:
				mc.res.Energy.VMAccessEnergy += e
				mc.res.Energy.VMAccesses++
				class = ChargeVMAccess
			case chNVMAcc:
				mc.res.Energy.NVMAccessEnergy += e
				mc.res.Energy.NVMAccesses++
				class = ChargeNVMAccess
			default:
				class = ChargeCompute
			}
		}
	}
	if mc.perInstr || mc.attr != nil {
		mc.booked(class, e, level)
	}
	return true
}

// booked reports a granted draw of e nJ from the capacitor level: to
// the observer's attribution, or as an EvCharge stamped with the
// executing block and the responsible checkpoint site. Every draw
// happens inside a frame: boot and recovery push theirs first.
func (mc *machine) booked(class ChargeClass, e, level float64) {
	site := mc.chargeSite(class)
	fr := mc.top()
	if mc.attr != nil {
		mc.attr.charge(class, e, site, fr.cb.ID(), fr.fn, fr.cb.IR)
	}
	if mc.perInstr {
		mc.emit(Event{Kind: EvCharge, Class: class, Energy: e, Site: site, CapEnergy: level,
			Point: PointCharge, Seq: mc.ordinal(), Fn: fr.fn, Block: fr.cb.IR, BlockID: fr.cb.ID()})
	}
}

// ordinal is the run's charge ordinal: the draws charge made and those
// of every batched instruction. Outside execBatch, batched is the count
// of the latter.
func (mc *machine) ordinal() int64 { return mc.charges + mc.batched }

// chargeSite resolves the checkpoint site a charge is attributed to:
// re-execution belongs to the site execution resumed from, save/restore
// work to the checkpoint currently executing (or, for post-failure
// recovery, the snapshot's site); -1 means boot / no site.
func (mc *machine) chargeSite(class ChargeClass) int {
	if class == ChargeReexec {
		if mc.snap != nil {
			return mc.snap.site
		}
		return -1
	}
	if mc.curSite >= 0 {
		return mc.curSite
	}
	if mc.snap != nil {
		return mc.snap.site
	}
	return -1
}

// reach moves the schedule past the kind-k probe with ordinal n, which
// reached its horizon, and takes the horizon again. The supply dies
// there.
func (mc *machine) reach(k PointKind, n int64) {
	mc.sched.advance(k, n)
	mc.next = mc.sched.horizon()
}

// induce records a schedule-induced power failure at an instruction
// boundary or save phase, the probe of the given kind and ordinal seq:
// the schedule moves past it, the injection counter counts it and, for
// observers, an EvInjection carries the capacitor level brought up to
// date, immediately before the EvPowerFailure the caller triggers.
// Failures at a charge do not pass through here — they are physics,
// not injections.
func (mc *machine) induce(kind PointKind, site int, seq int64) {
	mc.reach(kind, seq)
	mc.store.harvest(mc.res.TotalCycles)
	mc.res.InjectedFailures++
	if mc.obs != nil {
		mc.emit(Event{Kind: EvInjection, Point: kind, Seq: seq, Site: site, CapEnergy: mc.store.level})
	}
}

// probeSave probes one of the save-phase injection points, addressed by
// the save-attempt ordinal. True means the supply dies there; the
// caller must trigger the power failure.
func (mc *machine) probeSave(kind PointKind, site int) bool {
	if mc.track {
		mc.visitSave(kind)
	}
	if mc.res.SaveAttempts < mc.next.at[kind] {
		return false
	}
	mc.induce(kind, site, mc.res.SaveAttempts)
	return true
}

// vmStorage returns the VM-resident storage of the variable in slot,
// materializing it on demand. A variable that was never restored
// materializes poisoned (and, for reads, bumps UnsyncedReads — the
// signal of a broken pass). ALFRED's deferred restoration is implemented
// here: the first access to a pending-restore variable pays its restore
// cost.
func (mc *machine) vmStorage(slot int32, v *ir.Var, read bool) []int64 {
	if mc.pending[slot] {
		mc.pending[slot] = false
		if !mc.charge(mc.cfg.Model.RestoreVarCost(v), chRestore) {
			mc.powerFailure()
			return nil
		}
		if mc.vm[slot] == nil {
			// Deferred boot copy: the NVM home is the source of truth.
			if !mc.addVMResident(slot, mc.vmCopy(slot, mc.nvm[slot])) {
				return nil
			}
		}
	}
	if arr := mc.vm[slot]; arr != nil {
		return arr
	}
	if read {
		mc.res.UnsyncedReads++
		if mc.obs != nil {
			fr := mc.top()
			mc.emit(Event{Kind: EvPoisonRead, Var: v, Fn: fr.fn, Block: fr.cb.IR})
		}
	}
	arr := make([]int64, v.Elems)
	for i := range arr {
		arr[i] = Poison
	}
	if !mc.addVMResident(slot, arr) {
		return nil
	}
	return arr
}

// addVMResident registers VM storage for the variable in slot, enforcing
// SVM. It returns false (and closes the run with a VMOverflow verdict)
// on overflow.
func (mc *machine) addVMResident(slot int32, data []int64) bool {
	mc.vm[slot] = data
	mc.stale[slot] = true
	mc.vmBytes += mc.prog.Vars[slot].SizeBytes()
	if mc.vmBytes > mc.res.MaxVMBytes {
		mc.res.MaxVMBytes = mc.vmBytes
	}
	if mc.cfg.VMSize > 0 && mc.vmBytes > mc.cfg.VMSize {
		mc.close(VMOverflow)
		return false
	}
	return true
}

func (mc *machine) clearVM() {
	for i := range mc.vm {
		if mc.vm[i] != nil {
			mc.vmSpare[i] = mc.vm[i]
			mc.vm[i] = nil
			mc.stale[i] = true
		}
		mc.pending[i] = false
		mc.dirty[i] = false
	}
	mc.vmBytes = 0
}

// vmCopy returns a copy of src destined for the slot's VM storage,
// reusing the slot's parked spare array when one is available (it always
// fits — same variable, same size).
func (mc *machine) vmCopy(slot int32, src []int64) []int64 {
	if buf := mc.vmSpare[slot]; cap(buf) >= len(src) {
		mc.vmSpare[slot] = nil
		buf = buf[:len(src)]
		copy(buf, src)
		return buf
	}
	return append([]int64(nil), src...)
}
