package emulator

import "schematic/internal/ir"

// EventKind enumerates the observations the emulator emits.
type EventKind uint8

const (
	// EvBlockEnter fires when a basic block starts executing. Call marks
	// entries that push a new frame (function calls and the boot of main);
	// Resume marks the replay of the restored call stack after a power
	// failure or at a resumed run's boot, so observers can mirror the
	// stack exactly. An Attributor
	// is sent none: its Attribution counts the entries.
	EvBlockEnter EventKind = iota
	// EvFuncReturn fires on every function return (including main's),
	// before the frame is popped.
	EvFuncReturn
	// EvCharge fires for every draw from the capacitor, classified into
	// the ledger bucket it fed (Class) and stamped with the attribution
	// context: the executing block (and its BlockID) and the responsible
	// checkpoint site. CapEnergy is the level the draw was taken from;
	// Point is PointCharge and Seq the draw's charge ordinal. An
	// Attributor is sent none: the machine adds each draw to its
	// Attribution instead, which lets the run batch.
	EvCharge
	// EvCheckpointHit fires when a checkpoint instruction begins
	// executing, whether or not it ends up saving.
	EvCheckpointHit
	// EvSave fires after a checkpoint save was charged, with the site,
	// the bytes written to the NVM checkpoint area, and the energy.
	EvSave
	// EvRestore fires after a restore operation was charged: a
	// wait-checkpoint wake-up or a post-failure recovery.
	EvRestore
	// EvSleepStart / EvSleepEnd bracket a wait-checkpoint replenishment
	// period. CapEnergy carries the capacitor level.
	EvSleepStart
	EvSleepEnd
	// EvPowerFailure fires when the supply dies, with the remaining
	// capacitor level and the site of the active recovery point (-1 when
	// none exists yet). A failure at a draw carries the refused draw in
	// Energy, PointCharge in Point and the draw's charge ordinal in Seq;
	// an injected one (preceded by EvInjection) carries none of them.
	// Seq is the run's charge ordinal on either path: a batched
	// instruction is one draw, and counts as one.
	EvPowerFailure
	// EvReexecStart / EvReexecEnd bracket a re-execution span: work
	// repeated between a recovery point and the previous high-water mark.
	// Site is the checkpoint site execution resumed from (-1 for a cold
	// restart).
	EvReexecStart
	EvReexecEnd
	// EvPoisonRead fires on every read of VM storage that was never
	// restored — the signal of a broken transformation.
	EvPoisonRead
	// EvInjection fires when the configured PowerSchedule induces a power
	// failure at an instruction boundary or save phase, immediately
	// before the matching EvPowerFailure. Point carries the injection
	// point kind and Seq its ordinal (the step index for step points, the
	// save-attempt ordinal for save points); Site is the checkpoint site
	// for save points.
	EvInjection
)

func (k EventKind) String() string {
	switch k {
	case EvBlockEnter:
		return "block"
	case EvFuncReturn:
		return "ret"
	case EvCharge:
		return "charge"
	case EvCheckpointHit:
		return "ckpt-hit"
	case EvSave:
		return "save"
	case EvRestore:
		return "restore"
	case EvSleepStart:
		return "sleep-start"
	case EvSleepEnd:
		return "sleep-end"
	case EvPowerFailure:
		return "power-failure"
	case EvReexecStart:
		return "reexec-start"
	case EvReexecEnd:
		return "reexec-end"
	case EvPoisonRead:
		return "poison"
	case EvInjection:
		return "injection"
	default:
		return "event"
	}
}

// ChargeClass says which ledger bucket an EvCharge fed. The first three
// classes partition Ledger.Computation (ChargeVMAccess / ChargeNVMAccess
// feed the Fig. 7 access split, ChargeCompute is the rest); the last
// three map to Save, Restore and Reexecution.
type ChargeClass uint8

const (
	ChargeCompute ChargeClass = iota
	ChargeVMAccess
	ChargeNVMAccess
	ChargeSave
	ChargeRestore
	ChargeReexec
)

func (c ChargeClass) String() string {
	switch c {
	case ChargeCompute:
		return "compute"
	case ChargeVMAccess:
		return "vm"
	case ChargeNVMAccess:
		return "nvm"
	case ChargeSave:
		return "save"
	case ChargeRestore:
		return "restore"
	case ChargeReexec:
		return "reexec"
	default:
		return "class"
	}
}

// Event is one cycle-stamped observation. Events are passed by value and
// never retained by the emulator, so observers may keep them. Fields
// beyond Kind/Cycle/Step are meaningful only for the kinds documented on
// the EventKind constants; in particular Site is a checkpoint site ID
// where -1 means "none / boot".
type Event struct {
	Kind  EventKind
	Cycle int64 // Result.TotalCycles at emission
	Step  int64 // instructions executed so far

	Fn      *ir.Func
	Block   *ir.Block
	BlockID int     // EvCharge, EvBlockEnter: Block's dispatch ordinal (Attribution.Blocks index)
	Var     *ir.Var // EvPoisonRead

	Class  ChargeClass // EvCharge
	Energy float64     // nJ: EvCharge, EvSave, EvRestore; EvPowerFailure: the refused draw
	Site   int         // checkpoint site ID, -1 = none
	Bytes  int         // EvSave/EvRestore: bytes moved (registers + variables)

	CapEnergy float64 // capacitor level nJ: EvCharge, EvPowerFailure, EvSleepStart/End, EvInjection

	// Point and Seq name a probe by kind and ordinal (see PointKind):
	// the injection point that fired (EvInjection), or the draw
	// (EvCharge, and the EvPowerFailure of a refused draw).
	Point PointKind
	Seq   int64

	Call   bool // EvBlockEnter: entry pushed a new frame
	Resume bool // EvBlockEnter: replay of a restored frame after a failure
}

// Observer receives the emulator's event stream. A nil observer costs
// nothing: the machine skips event construction entirely (the fast path
// every unobserved run takes). Observers are invoked synchronously from
// the emulation loop and must not retain pointers into the machine.
//
// An observer that reads EvCharge or EvBlockEnter keeps the whole run
// on the stepped path, one event per instruction. One that reads
// neither opts out by implementing Attributor, and its run batches like
// an unobserved one.
type Observer interface {
	Event(Event)
}

type multiObserver []Observer

func (m multiObserver) Event(e Event) {
	for _, o := range m {
		o.Event(e)
	}
}

// MultiObserver fans the event stream out to several observers, ignoring
// nil entries. It returns nil when no observer remains and the observer
// itself when only one does, preserving the nil fast path. The fan-out
// opts out of per-instruction events when every member is an Attributor
// and at most one of them returns an Attribution.
func MultiObserver(obs ...Observer) Observer {
	var list multiObserver
	for _, o := range obs {
		if o != nil {
			list = append(list, o)
		}
	}
	switch len(list) {
	case 0:
		return nil
	case 1:
		return list[0]
	default:
		return list
	}
}
