package emulator

import (
	"fmt"

	"schematic/internal/emulator/dispatch"
	"schematic/internal/ir"
)

// Attribution says where a run's energy went. Per block it holds the
// block's entries and its first-execution computation energy with the
// VM/NVM access split; per checkpoint site, the save, restore and
// re-execution energy charged to the site and the location where the
// site was first observed. These are exactly the sums of the run's
// EvCharge events by block and by site, and its entries are the
// EvBlockEnter events that are not stack replays.
//
// An Attributor's Attribution is filled by the machine, and Add folds
// the same events into one from an event stream. Both add in the order
// the run charged, so the two are bit-identical, on either executor.
//
// Blocks is indexed by dispatch block ordinal (Event.BlockID) and Sites
// by site ID + 1, so Sites[0] is the boot site -1. A block no event
// touched has a nil Block, a site no event touched is not Seen. The
// machine binds an Attribution to the module of its first run, as it
// does a Counts. An Attribution is not safe for concurrent runs.
type Attribution struct {
	Blocks []BlockShare
	Sites  []SiteShare

	bound binding
}

// BlockShare is one block's entries and computation energy, nJ.
type BlockShare struct {
	Fn    *ir.Func
	Block *ir.Block // nil until the block is entered or charged

	Entries     int64   // executions (stack replays after a failure excluded)
	Compute     float64 // first-execution computation energy
	VMAccess    float64 // portion spent on VM word accesses
	NVMAccess   float64 // portion spent on NVM word accesses
	VMAccesses  int64
	NVMAccesses int64
}

// SiteShare is one checkpoint site's intermittency energy, nJ.
type SiteShare struct {
	Seen  bool
	Fn    *ir.Func // where the site was first observed
	Block *ir.Block

	Save    float64
	Restore float64
	Reexec  float64 // re-execution after resuming from the site
}

// An Attributor is an Observer that reads no per-instruction events:
// the machine sends it no EvCharge and no EvBlockEnter, and fills the
// Attribution it returns instead (an Attributor that reads no energy
// returns nil). Every other event reaches it exactly as on the stepped
// path, field for field, except EvPowerFailure's Seq.
//
// A run whose observer opts out this way batches where an unobserved
// run does. A MultiObserver opts out when every member does and at most
// one of them returns an Attribution.
type Attributor interface {
	Observer
	Attribution() *Attribution
}

// attributionOf reports whether o opts out of per-instruction events,
// and the Attribution the machine must fill for it, if any.
func attributionOf(o Observer) (*Attribution, bool) {
	switch o := o.(type) {
	case multiObserver:
		var a *Attribution
		for _, m := range o {
			ma, ok := attributionOf(m)
			if !ok || (ma != nil && a != nil) {
				return nil, false
			}
			if ma != nil {
				a = ma
			}
		}
		return a, true
	case Attributor:
		return o.Attribution(), true
	}
	return nil, false
}

// Add folds one event into the attribution: a block entry that is not a
// stack replay, a charge, and a checkpoint hit, save or restore, each of
// which marks its site observed. Other events are ignored.
func (a *Attribution) Add(e Event) {
	switch e.Kind {
	case EvBlockEnter:
		if !e.Resume {
			a.block(e.BlockID, e.Fn, e.Block).Entries++
		}
	case EvCharge:
		a.charge(e.Class, e.Energy, e.Site, e.BlockID, e.Fn, e.Block)
	case EvCheckpointHit, EvSave, EvRestore:
		a.site(e.Site, e.Fn, e.Block)
	}
}

// block returns the share of the block with ordinal id, growing the
// table as an event stream reveals ordinals and naming the entry on its
// first touch.
func (a *Attribution) block(id int, fn *ir.Func, b *ir.Block) *BlockShare {
	if id >= len(a.Blocks) {
		a.Blocks = append(a.Blocks, make([]BlockShare, id+1-len(a.Blocks))...)
	}
	s := &a.Blocks[id]
	if s.Block == nil {
		s.Fn, s.Block = fn, b
	}
	return s
}

// site returns the share of checkpoint site id (-1: boot), recording
// fn.b as its location when this is the site's first observation.
func (a *Attribution) site(id int, fn *ir.Func, b *ir.Block) *SiteShare {
	i := id + 1
	if i >= len(a.Sites) {
		a.Sites = append(a.Sites, make([]SiteShare, i+1-len(a.Sites))...)
	}
	s := &a.Sites[i]
	if !s.Seen {
		s.Seen, s.Fn, s.Block = true, fn, b
	}
	return s
}

// charge books one granted draw as its EvCharge reports it: class,
// energy, site, and the executing block's ordinal and location.
func (a *Attribution) charge(c ChargeClass, e float64, site, id int, fn *ir.Func, b *ir.Block) {
	switch c {
	case ChargeCompute:
		a.block(id, fn, b).Compute += e
	case ChargeVMAccess:
		s := a.block(id, fn, b)
		s.Compute += e
		s.VMAccess += e
		s.VMAccesses++
	case ChargeNVMAccess:
		s := a.block(id, fn, b)
		s.Compute += e
		s.NVMAccess += e
		s.NVMAccesses++
	case ChargeSave:
		a.site(site, fn, b).Save += e
	case ChargeRestore:
		a.site(site, fn, b).Restore += e
	case ChargeReexec:
		a.site(site, fn, b).Reexec += e
	}
}

// binding ties a data sink (a Counts, an Attribution) to the compiled
// program of its first run.
type binding struct {
	prog *dispatch.Program
}

// bind records prog on first use and afterwards rejects a run whose
// compiled form differs from the one the sink was sized for, naming the
// Config field that carried the sink. A program recompiled from an
// unchanged module (after a dispatch cache eviction, or under another
// energy model) has the same ordinals, so it keeps adding into the same
// slots. fresh reports the first use, when the caller sizes the sink.
func (s *binding) bind(field string, m *ir.Module, prog *dispatch.Program) (fresh bool, err error) {
	if s.prog == nil {
		s.prog = prog
		return true, nil
	}
	return false, s.check(field, m, prog)
}

// check rejects a run of prog, compiled from m, unless s is bound to m
// as it is now: a value bound to nothing, to another module, or to this
// one before an in-place edit fails.
func (s *binding) check(field string, m *ir.Module, prog *dispatch.Program) error {
	switch {
	case s.prog == nil:
		return &ConfigError{Field: field, Reason: "bound to no module"}
	case s.prog.Mod != m:
		return &ConfigError{Field: field,
			Reason: fmt.Sprintf("bound to module %q, cannot take a run of module %q", s.prog.Mod.Name, m.Name)}
	case prog.Fingerprint() != s.prog.Fingerprint():
		return &ConfigError{Field: field,
			Reason: fmt.Sprintf("module %q changed since it was bound", m.Name)}
	}
	return nil
}

// bindTo binds a to the run's program and sizes its block
// table for it.
func (a *Attribution) bindTo(m *ir.Module, prog *dispatch.Program) error {
	if _, err := a.bound.bind("Observer", m, prog); err != nil {
		return err
	}
	if n := prog.NumBlocks(); len(a.Blocks) < n {
		a.Blocks = append(a.Blocks, make([]BlockShare, n-len(a.Blocks))...)
	}
	return nil
}
