package emulator

import (
	"schematic/internal/ir"
)

// regCount returns the refined live-register count of a checkpoint, or
// -1 for a full register-file save.
func regCount(ck *ir.Checkpoint) int {
	if ck.RefinedRegs {
		return ck.LiveRegs
	}
	return -1
}

// saveSet resolves the slots a checkpoint must write to NVM. SaveAll
// enumerates VM residents in the program's name order — a total order
// even across duplicate local names, so the float summation order of
// the save cost (and everything downstream of it) is deterministic. The
// returned slice is backed by slotScratch1 and valid until the next
// saveSet call.
func (mc *machine) saveSet(ck *ir.Checkpoint) []int32 {
	if ck.RegsOnly {
		return nil
	}
	slots := mc.slotScratch1[:0]
	if ck.SaveAll {
		for _, slot := range mc.prog.NameOrder {
			if mc.vm[slot] != nil {
				slots = append(slots, slot)
			}
		}
	} else {
		for _, v := range ck.Save {
			slots = append(slots, mc.slot(v))
		}
	}
	mc.slotScratch1 = slots
	if ck.Lazy {
		// Anticipated saving: only variables written since the last save
		// actually need to reach NVM (order-preserving in-place filter).
		k := 0
		for _, slot := range slots {
			if mc.dirty[slot] {
				slots[k] = slot
				k++
			}
		}
		return slots[:k]
	}
	return slots
}

// restoreSet resolves the slots re-materialized in VM after the sleep of
// a wait-style checkpoint. The result aliases saved (SaveAll) or
// slotScratch2.
func (mc *machine) restoreSet(ck *ir.Checkpoint, saved []int32) []int32 {
	if ck.RegsOnly {
		return nil
	}
	if ck.SaveAll {
		return saved
	}
	slots := mc.slotScratch2[:0]
	for _, v := range ck.Restore {
		slots = append(slots, mc.slot(v))
	}
	mc.slotScratch2 = slots
	return slots
}

// execCheckpoint runs a checkpoint instruction. On return the program
// counter has advanced past the checkpoint (or a power failure / verdict
// has redirected control).
func (mc *machine) execCheckpoint(ck *ir.Checkpoint) error {
	fr := mc.top()
	mc.curSite = ck.ID
	defer func() { mc.curSite = -1 }()
	if mc.obs != nil {
		mc.emit(Event{Kind: EvCheckpointHit, Site: ck.ID, Fn: fr.fn, Block: fr.cb.IR})
	}

	// Conditional checkpointing (Algorithm 1): the iteration counter lives
	// in NVM so it survives power failures; updating it costs one NVM
	// write.
	if ck.Every > 1 {
		if !mc.charge(mc.cfg.Model.NVMWriteEnergy, chComp) {
			mc.powerFailure()
			return nil
		}
		if mc.bumpCounter(ck.ID)%int64(ck.Every) != 0 {
			fr.pc++
			mc.bumpProgress()
			return nil
		}
	}

	switch ck.Kind {
	case ir.CkWait:
		mc.ckWait(ck)
	case ir.CkRollback:
		mc.ckRollback(ck)
	case ir.CkTrigger:
		mc.ckTrigger(ck)
	}
	return nil
}

// bumpProgress advances the logical progress index past one completed
// instruction and closes the re-execution span when it catches the
// previous high-water mark.
func (mc *machine) bumpProgress() {
	mc.done++
	if mc.done > mc.furthest {
		mc.furthest = mc.done
	}
	if mc.inReexec && mc.done >= mc.furthest {
		mc.inReexec = false
		if mc.obs != nil {
			mc.emit(Event{Kind: EvReexecEnd, Site: mc.reexecSite})
		}
	}
}

// startReexec opens a re-execution span when the recovery point lies
// before the previous high-water mark. site is the checkpoint execution
// resumed from (-1 for a cold restart).
func (mc *machine) startReexec(site int) {
	if mc.done >= mc.furthest || mc.inReexec {
		return
	}
	mc.inReexec = true
	mc.reexecSite = site
	if mc.obs != nil {
		mc.emit(Event{Kind: EvReexecStart, Site: site})
	}
}

// checkpointBytes is the data volume of a save/restore operation:
// machine state for the given refined live-register count (-1 = full
// register file) plus the variables in the listed slots.
func (mc *machine) checkpointBytes(liveRegs int, slots []int32) int {
	b := mc.cfg.Model.RegBytesFor(liveRegs)
	for _, slot := range slots {
		b += mc.prog.Vars[slot].SizeBytes()
	}
	return b
}

// saveVarsCost accumulates the save cost of the variables in slots onto
// base, adding in slice order — the same sequential accumulation
// Model.SaveCost performs on a var list, so the float result is
// bit-identical to it.
func (mc *machine) saveVarsCost(base float64, slots []int32) float64 {
	for _, slot := range slots {
		base += mc.cfg.Model.SaveVarCost(mc.prog.Vars[slot])
	}
	return base
}

// restoreVarsCost is the restore-side counterpart of saveVarsCost.
func (mc *machine) restoreVarsCost(base float64, slots []int32) float64 {
	for _, slot := range slots {
		base += mc.cfg.Model.RestoreVarCost(mc.prog.Vars[slot])
	}
	return base
}

// addCkCycles accounts the time of checkpoint save/restore work: copying
// data to or from NVM is bandwidth-bound, so its duration is taken as
// proportional to its energy.
func (mc *machine) addCkCycles(e float64) {
	c := int64(e / mc.cfg.Model.EnergyPerCycle)
	mc.res.TotalCycles += c
	mc.res.Cycles += c
	mc.cyclesSincePower += c
}

// save is the one save protocol of the three checkpoint runtimes, so
// every technique's checkpoints pay the same steps: count the attempt,
// probe before the save, charge it, probe mid-save, then write the slots
// to NVM and count the save. liveRegs is the refined register count (-1
// = the full file). It reports false when power failed.
func (mc *machine) save(ck *ir.Checkpoint, liveRegs int, slots []int32) bool {
	cost := mc.saveVarsCost(mc.cfg.Model.SaveRegsCostFor(liveRegs), slots)
	mc.res.SaveAttempts++
	// A failure mid-save is a torn checkpoint: the save energy is spent
	// but the partial NVM write never becomes a recovery point — nothing
	// reaches NVM, no snapshot is taken, the previous recovery point
	// stays in force.
	if mc.probeSave(PointBeforeSave, ck.ID) || !mc.charge(cost, chSave) || mc.probeSave(PointMidSave, ck.ID) {
		mc.powerFailure()
		return false
	}
	if mc.obs != nil {
		fr := mc.top()
		mc.emit(Event{Kind: EvSave, Site: ck.ID, Energy: cost,
			Bytes: mc.checkpointBytes(liveRegs, slots), Fn: fr.fn, Block: fr.cb.IR})
	}
	mc.addCkCycles(cost)
	for _, slot := range slots {
		if arr := mc.vm[slot]; arr != nil {
			mc.commitSlot(slot, arr)
			mc.dirty[slot] = false
		}
	}
	mc.res.Saves++
	return true
}

// commitPoint makes a completed save the recovery point: it steps past
// the checkpoint, snapshots with the restores slots resident in VM, and
// probes after the save. It reports false when power failed.
func (mc *machine) commitPoint(ck *ir.Checkpoint, restores []int32, lazy bool) bool {
	mc.top().pc++
	mc.takeSnapshot(restores, lazy, ck.ID)
	if !mc.halted && mc.probeSave(PointAfterSave, ck.ID) {
		mc.powerFailure()
		return false
	}
	return true
}

// ckWait implements the SCHEMATIC/ROCKCLIMB runtime of Fig. 3: save
// volatile data, sleep until the capacitor is full, restore, resume.
func (mc *machine) ckWait(ck *ir.Checkpoint) {
	saved := mc.saveSet(ck)
	if !mc.save(ck, regCount(ck), saved) {
		return
	}
	// The recovery point is the post-restore state: resume at the next
	// instruction with only the restore set resident in VM.
	restores := mc.restoreSet(ck, saved)
	if !mc.commitPoint(ck, restores, false) {
		return
	}

	// Deep sleep: recharge to full; VM content is lost (paper, IV-D:
	// "conservatively assuming that the platform goes into deep sleep and
	// thus VM is lost").
	if mc.cfg.Intermittent {
		mc.store.harvest(mc.res.TotalCycles)
		if mc.obs != nil {
			mc.emit(Event{Kind: EvSleepStart, Site: ck.ID, CapEnergy: mc.store.level})
		}
		mc.store.recharge(mc.store.capacity)
		mc.cyclesSincePower = 0
		mc.res.Sleeps++
		if mc.obs != nil {
			mc.emit(Event{Kind: EvSleepEnd, Site: ck.ID, CapEnergy: mc.store.level})
		}
	}
	mc.clearVM()

	restoreCost := mc.restoreVarsCost(mc.cfg.Model.RestoreRegsCostFor(regCount(ck)), restores)
	if !mc.charge(restoreCost, chRestore) {
		mc.powerFailure()
		return
	}
	mc.res.Restores++
	if mc.obs != nil {
		fr := mc.top()
		mc.emit(Event{Kind: EvRestore, Site: ck.ID, Energy: restoreCost,
			Bytes: mc.checkpointBytes(regCount(ck), restores), Fn: fr.fn, Block: fr.cb.IR})
	}
	mc.addCkCycles(restoreCost)
	for _, slot := range restores {
		if !mc.addVMResident(slot, mc.vmCopy(slot, mc.nvm[slot])) {
			return
		}
	}
	mc.bumpProgress()
}

// materializeRestore brings the checkpoint's Restore list into VM: the
// boot-time copy of initialized data for VM-working-memory techniques.
// Lazy checkpoints (ALFRED) defer the copy (and its cost) to first access.
func (mc *machine) materializeRestore(ck *ir.Checkpoint) bool {
	for _, v := range ck.Restore {
		slot := mc.slot(v)
		if mc.vm[slot] != nil || mc.pending[slot] {
			continue
		}
		if ck.Lazy {
			mc.pending[slot] = true
			continue
		}
		if !mc.charge(mc.cfg.Model.RestoreVarCost(v), chRestore) {
			mc.powerFailure()
			return false
		}
		if !mc.addVMResident(slot, mc.vmCopy(slot, mc.nvm[slot])) {
			return false
		}
	}
	return true
}

// ckRollback implements the RATCHET/ALFRED runtime: save and continue.
func (mc *machine) ckRollback(ck *ir.Checkpoint) {
	if len(ck.Restore) > 0 && !mc.materializeRestore(ck) {
		return
	}
	if mc.save(ck, regCount(ck), mc.saveSet(ck)) && mc.commitPoint(ck, mc.residentSlots(), ck.Lazy) {
		mc.bumpProgress()
	}
}

// triggerThreshold is the MEMENTOS trigger fraction: a trigger
// checkpoint saves when the capacitor level is below this fraction of
// its capacity.
const triggerThreshold = 0.5

// ckTrigger implements the MEMENTOS runtime: measure the capacitor level
// and checkpoint only when it is below triggerThreshold of its capacity.
func (mc *machine) ckTrigger(ck *ir.Checkpoint) {
	if len(ck.Restore) > 0 && !mc.materializeRestore(ck) {
		return
	}
	// Voltage measurement cost (ADC read).
	if !mc.charge(mc.cfg.Model.SleepWakeCheck, chSave) {
		mc.powerFailure()
		return
	}
	if mc.cfg.Intermittent && mc.store.level < triggerThreshold*mc.store.capacity {
		saved := mc.residentSlots()
		if mc.save(ck, -1, saved) && mc.commitPoint(ck, saved, false) {
			mc.bumpProgress()
		}
		return
	}
	mc.top().pc++
	mc.bumpProgress()
}

// residentSlots lists the VM-resident slots in the program's name order
// — the same total order saveSet uses, so save and restore costs sum in
// one deterministic sequence. The returned slice is backed by
// slotScratch2 and valid until the next residentSlots/restoreSet call.
func (mc *machine) residentSlots() []int32 {
	slots := mc.slotScratch2[:0]
	for _, slot := range mc.prog.NameOrder {
		if mc.vm[slot] != nil {
			slots = append(slots, slot)
		}
	}
	mc.slotScratch2 = slots
	return slots
}

// takeSnapshot records the recovery point: the full volatile state as it
// must look when execution resumes here. site is the checkpoint that
// takes it; post-failure restore and re-execution energy is attributed
// to it. The VM image is stored slot-by-slot in first-appearance order
// of the restore list — rollback replays it in exactly this order, so
// restore charging and VM residency growth are deterministic.
func (mc *machine) takeSnapshot(restores []int32, lazy bool, site int) {
	// Recycle the retired recovery point's buffers (ping-pong with
	// mc.snap). Its storage is dead: restores deep-copy out of a
	// snapshot, so nothing alive aliases it once a newer one replaces it.
	sn := mc.spareSnap
	mc.spareSnap = nil
	if sn == nil {
		sn = &snapshot{}
	}
	oldFrames := sn.frames
	oldData := sn.vmData
	*sn = snapshot{
		frames:   oldFrames[:0],
		vmSlots:  sn.vmSlots[:0],
		vmData:   oldData[:0],
		outLen:   len(mc.out),
		done:     mc.done + 1, // resume after the checkpoint instruction
		lazy:     lazy,
		site:     site,
		restores: append(sn.restores[:0], restores...),
	}
	for i := range mc.frames {
		f := mc.frames[i]
		var regs []int64
		if i < len(oldFrames) && cap(oldFrames[i].regs) >= len(f.regs) {
			regs = oldFrames[i].regs[:len(f.regs)]
		} else {
			regs = make([]int64, len(f.regs))
		}
		copy(regs, f.regs)
		f.regs = regs
		sn.frames = append(sn.frames, f)
	}
	record := func(slot int32) {
		if mc.seen[slot] {
			return
		}
		mc.seen[slot] = true
		src := mc.vm[slot]
		if src == nil {
			// Wait-style snapshots record the post-restore view: the NVM
			// copy just written. Pending (lazily deferred) variables also
			// take their NVM value — it is still their source of truth.
			src = mc.nvm[slot]
		}
		// Reuse the retired snapshot's buffer at the same position; the
		// slot sequence is usually identical save to save, so sizes match.
		j := len(sn.vmSlots)
		var buf []int64
		if j < len(oldData) && cap(oldData[j]) >= len(src) {
			buf = oldData[j][:len(src)]
		} else {
			buf = make([]int64, len(src))
		}
		copy(buf, src)
		sn.vmSlots = append(sn.vmSlots, slot)
		sn.vmData = append(sn.vmData, buf)
	}
	for _, slot := range restores {
		record(slot)
	}
	// Variables whose boot copy is still deferred must survive rollbacks;
	// visited in name order so the extra restore charges sum identically
	// run to run.
	for _, slot := range mc.prog.NameOrder {
		if mc.pending[slot] && !mc.seen[slot] {
			record(slot)
			sn.restores = append(sn.restores, slot)
		}
	}
	for _, slot := range sn.vmSlots {
		mc.seen[slot] = false
	}
	mc.spareSnap = mc.snap
	mc.snap = sn
	if mc.track {
		mc.refreshSnapLane()
	}
	if mc.res.PowerFailures > 0 {
		if sn.done > mc.maxSnapDone {
			mc.snapStagnation = 0
		} else {
			mc.snapStagnation++
			if mc.snapStagnation >= 64 {
				mc.close(Stuck)
			}
		}
	}
	if sn.done > mc.maxSnapDone {
		mc.maxSnapDone = sn.done
	}
}

// powerFailure models a supply outage: volatile state is lost, the
// capacitor recharges to its restart level while the device is off, and
// execution resumes from the last snapshot (or from scratch when none
// exists yet).
func (mc *machine) powerFailure() {
	// The failure aborts whatever checkpoint was executing; recovery work
	// below is attributed to the snapshot's site, not the aborted one.
	mc.curSite = -1
	mc.res.PowerFailures++
	mc.store.harvest(mc.res.TotalCycles)
	refused := mc.refused
	mc.refused = false
	if mc.obs != nil {
		ev := Event{Kind: EvPowerFailure, CapEnergy: mc.store.level, Site: -1}
		if refused {
			ev.Energy, ev.Point, ev.Seq = mc.draw, PointCharge, mc.charges
		}
		if mc.snap != nil {
			ev.Site = mc.snap.site
		}
		if len(mc.frames) > 0 {
			fr := mc.top()
			ev.Fn, ev.Block = fr.fn, fr.cb.IR
		}
		mc.emit(ev)
	}
	// A failure mid-re-execution truncates the open span; recovery below
	// opens a fresh one.
	if mc.inReexec {
		mc.inReexec = false
		if mc.obs != nil {
			mc.emit(Event{Kind: EvReexecEnd, Site: mc.reexecSite})
		}
	}
	if mc.res.PowerFailures > mc.cfg.MaxFailures {
		mc.close(OutOfFailures)
		return
	}
	// Forward-progress watchdog: with a deterministic power model, a
	// trapped execution re-fails without extending the high-water mark.
	if mc.furthest > mc.lastFailFurthest {
		mc.stagnation = 0
	} else {
		mc.stagnation++
		if mc.stagnation >= maxStagnation {
			mc.close(Stuck)
			return
		}
	}
	mc.lastFailFurthest = mc.furthest

	mc.store.recharge(mc.store.restart)
	mc.cyclesSincePower = 0
	mc.clearVM()

	if mc.snap == nil {
		// No recovery point yet: cold restart. NVM persists.
		mc.out = mc.out[:0]
		mc.done = 0
		mc.bootFrames()
		mc.startReexec(-1)
		return
	}
	mc.restoreSnap()
}

// restoreSnap performs the recovery boot from the committed snapshot:
// rebuild the call stack and committed output, charge the restore, and
// re-materialize the restore set. It is the shared tail of powerFailure
// and of booting a run from Config.Resume — both paths must stay
// bit-identical (same float summation order, same VM residency growth).
func (mc *machine) restoreSnap() {
	sn := mc.snap
	// The dying frames' register arrays go back to the pool (snapshots
	// hold their own deep copies, so nothing aliases them), and the
	// restored stack rebuilds in place.
	for i := range mc.frames {
		mc.regPool = append(mc.regPool, mc.frames[i].regs)
	}
	mc.frames = mc.frames[:0]
	for i := range sn.frames {
		f := sn.frames[i]
		regs := mc.newRegs(len(f.regs))
		copy(regs, f.regs)
		f.regs = regs
		mc.frames = append(mc.frames, f)
	}
	mc.out = mc.out[:sn.outLen]
	mc.done = sn.done
	if mc.obs != nil {
		// Replay the restored call stack so observers can mirror it. The
		// replay is not execution: observers counting executed blocks
		// skip these Resume entries, and Config.Counts never sees them.
		for i := range mc.frames {
			mc.emit(Event{Kind: EvBlockEnter, Fn: mc.frames[i].fn,
				Block: mc.frames[i].cb.IR, Call: true, Resume: true})
		}
	}

	if sn.lazy {
		// Deferred restoration: registers now, variables on first access.
		regCost := mc.cfg.Model.RestoreRegsCost()
		if !mc.charge(regCost, chRestore) {
			mc.powerFailure()
			return
		}
		mc.res.Restores++
		if mc.obs != nil {
			mc.emit(Event{Kind: EvRestore, Site: sn.site, Energy: regCost,
				Bytes: mc.checkpointBytes(-1, nil)})
		}
		for i, slot := range sn.vmSlots {
			if !mc.addVMResident(slot, mc.vmCopy(slot, sn.vmData[i])) {
				return
			}
			mc.pending[slot] = true
		}
		mc.startReexec(sn.site)
		return
	}
	restoreCost := mc.restoreVarsCost(mc.cfg.Model.RestoreRegsCost(), sn.restores)
	if !mc.charge(restoreCost, chRestore) {
		mc.powerFailure()
		return
	}
	mc.res.Restores++
	if mc.obs != nil {
		mc.emit(Event{Kind: EvRestore, Site: sn.site, Energy: restoreCost,
			Bytes: mc.checkpointBytes(-1, sn.restores)})
	}
	for i, slot := range sn.vmSlots {
		if !mc.addVMResident(slot, mc.vmCopy(slot, sn.vmData[i])) {
			return
		}
	}
	mc.startReexec(sn.site)
}

// close finishes the run with the given verdict.
func (mc *machine) close(v Verdict) {
	mc.res.Verdict = v
	mc.halted = true
}
