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
	outLen   int
	done     int64
	lazy     bool
	site     int     // checkpoint site that took the snapshot
	restores []int32 // slots whose restore is charged on rollback
}

type machine struct {
	mod   *ir.Module
	prog  *dispatch.Program
	cfg   Config
	res   Result
	capEn float64 // remaining capacitor energy

	// obs is Config.Observer; nil on an unobserved run. Every emission
	// site guards on nil so an unobserved run constructs no events at all.
	obs Observer
	// curSite is the checkpoint site currently executing, -1 outside
	// execCheckpoint; save/restore charges are attributed to it.
	curSite int
	// inReexec/reexecSite track the open re-execution span: work repeated
	// between a recovery point and the previous high-water mark.
	inReexec   bool
	reexecSite int

	// Variable storage is indexed by the program's slot table: nvm holds
	// every variable's persistent home; vm[slot] is non-nil while the
	// variable is VM-resident. pending marks VM variables whose
	// post-rollback restore cost has not been charged yet (ALFRED's
	// deferred restoration); dirty marks VM variables written since their
	// last save.
	nvm     [][]int64
	vm      [][]int64
	pending []bool
	dirty   []bool
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
	stagnation       int
	lastFailFurthest int64
	// Snapshot-progress watchdog (paper §VI: detect restarting "from the
	// same checkpoint twice"): recovery points must eventually advance
	// past the furthest previously snapshotted position, or the execution
	// is livelocked even if individual failures jitter.
	maxSnapDone    int64
	snapStagnation int

	halted  bool // a final verdict other than Completed has been reached
	vmBytes int

	// cyclesSincePower counts active cycles since the last replenishment,
	// for the Periodic schedule (Probe.CyclesSincePower).
	cyclesSincePower int64

	// exhaust/sched are the split of the run's resolved PowerSchedule:
	// exhaust keeps capacitor physics as an inline comparison on the hot
	// charge path, sched holds whatever else is scheduled (nil on default
	// runs, so per-instruction probing costs nothing).
	exhaust bool
	sched   PowerSchedule

	// track enables incremental persistent-state hashing (Config.Hook):
	// every NVM write, counter bump, and snapshot commit updates the
	// lanes below so each injection point's state hash costs O(1).
	track     bool
	hook      Hook
	captureFn func() *PersistentState
	// nvmLane/ctrLane are commutative 128-bit sums over per-cell hashes
	// (order-independent, incrementally updated); snapLane is the
	// sequential hash of the committed snapshot + output prefix,
	// recomputed only when a snapshot commits.
	nvmLane1, nvmLane2   uint64
	ctrLane1, ctrLane2   uint64
	snapLane1, snapLane2 uint64
}

func newMachine(m *ir.Module, cfg Config) *machine {
	prog := dispatch.For(m, cfg.Model)
	n := len(prog.Vars)
	mc := &machine{
		mod:      m,
		prog:     prog,
		cfg:      cfg,
		obs:      cfg.Observer,
		curSite:  -1,
		nvm:      make([][]int64, n),
		vm:       make([][]int64, n),
		pending:  make([]bool, n),
		dirty:    make([]bool, n),
		vmSpare:  make([][]int64, n),
		seen:     make([]bool, n),
		counters: map[int]int64{},
		capEn:    cfg.EB,
	}
	mc.exhaust, mc.sched = splitExhaustion(resolveSchedule(cfg))
	mc.initNVM()
	if cfg.PrewarmVM {
		mc.prewarmVM()
	}
	mc.bootFrames()
	if cfg.Hook != nil {
		mc.track = true
		mc.hook = cfg.Hook
		mc.captureFn = mc.captureState
		mc.recomputeLanes()
	}
	return mc
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
	for slot, v := range mc.prog.Vars {
		data := make([]int64, v.Elems)
		copy(data, v.Init)
		if in, ok := mc.cfg.Inputs[v.Name]; ok && v.Input {
			copy(data, in)
		}
		mc.nvm[slot] = data
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
	if mc.obs != nil {
		mc.emit(Event{Kind: EvBlockEnter, Fn: mainFn, Block: mainFn.Entry(), Call: true})
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
// then abandon the current operation.
func (mc *machine) charge(e float64, kind chargeKind) bool {
	if mc.exhaust && mc.capEn+chargeEpsilon < e {
		return false
	}
	if mc.sched != nil && mc.sched.Fail(mc.probe(PointCharge, mc.res.Steps, e)) {
		mc.induce(PointCharge, mc.curSite, mc.res.Steps)
		return false
	}
	mc.capEn -= e
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
	if mc.obs != nil {
		ev := Event{Kind: EvCharge, Class: class, Energy: e, Site: mc.chargeSite(class)}
		if len(mc.frames) > 0 {
			fr := mc.top()
			ev.Fn, ev.Block = fr.fn, fr.cb.IR
		}
		mc.emit(ev)
	}
	return true
}

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

// probe assembles the machine state handed to the schedule at an
// injection point. Site is the checkpoint currently executing (-1
// elsewhere), which is exactly the save site for the save-phase points.
func (mc *machine) probe(kind PointKind, occurrence int64, energy float64) Probe {
	return Probe{
		Kind:             kind,
		Step:             mc.res.Steps,
		Cycle:            mc.res.TotalCycles,
		CyclesSincePower: mc.cyclesSincePower,
		Occurrence:       occurrence,
		Site:             mc.curSite,
		Energy:           energy,
		Remaining:        mc.capEn,
		Failures:         mc.res.PowerFailures,
	}
}

// induce records a schedule-induced power failure: the injection counter
// and, for observers, an EvInjection immediately before the
// EvPowerFailure the caller triggers. Exhaustion failures do not pass
// through here — they are physics, not injections.
func (mc *machine) induce(kind PointKind, site int, seq int64) {
	mc.res.InjectedFailures++
	if mc.obs != nil {
		mc.emit(Event{Kind: EvInjection, Point: kind, Seq: seq, Site: site, CapEnergy: mc.capEn})
	}
}

// probeSave consults the schedule at one of the save-phase injection
// points, addressed by the save-attempt ordinal. True means the supply
// dies there; the caller must trigger the power failure.
func (mc *machine) probeSave(kind PointKind, site int) bool {
	if mc.hook != nil {
		mc.visitPoint(kind, mc.res.SaveAttempts)
	}
	if mc.sched == nil {
		return false
	}
	if !mc.sched.Fail(mc.probe(kind, mc.res.SaveAttempts, 0)) {
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
