// Package emulator executes IR programs the way the paper's ScEpTIC
// infrastructure does: at IR level, under an intermittent power supply,
// with precise energy monitoring.
//
// Power model. The platform owns one capacitor, holding EB nanojoules
// when full. Every executed instruction drains its energy; when the next
// instruction does not fit, a power failure occurs: all volatile state
// (registers, call stack, VM variable contents) is lost and the capacitor
// is replenished while the device is off. The paper's experiments use the
// time between power failures (TBPF) as the control variable and set EB to
// the average energy consumed over that interval (IV-C); the harness
// performs that conversion, the emulator works in energy units throughout.
//
// A Capacitor member of Config.Schedule configures it: its size, the
// level it reboots at after an outage, and a Supply harvesting energy in
// (internal/harvest). The level that refuses draws is the one MEMENTOS
// measures, probes report, observers see and traces record.
//
// Checkpoint runtimes. Checkpoint instructions carry their runtime kind:
//
//   - CkWait (SCHEMATIC, ROCKCLIMB): save volatile data, sleep until the
//     capacitor is full, restore, resume (Fig. 3). Deep sleep loses VM, so
//     restores happen at every enabled checkpoint.
//   - CkRollback (RATCHET, ALFRED): save and continue; a later power
//     failure rolls execution back to the most recent save.
//   - CkTrigger (MEMENTOS): measure the remaining energy and save only when
//     it falls below a threshold fraction of EB.
//
// Energy is split into the four categories of Fig. 6 — Computation, Save,
// Restore, Re-execution — plus the Fig. 7 sub-split of computation energy
// into VM accesses, NVM accesses, and non-memory work.
package emulator

import (
	"errors"
	"fmt"

	"schematic/internal/energy"
	"schematic/internal/ir"
)

// Poison is the value unrestored VM storage materializes with. Any
// observable poison in program output indicates a broken placement or
// allocation pass; tests rely on this.
const Poison int64 = 0x7A7A

// Config controls one emulation.
type Config struct {
	Model *energy.Model

	// VMSize is SVM in bytes. Accesses that would make the resident VM set
	// exceed it abort the run with a VM-overflow verdict.
	VMSize int

	// Intermittent enables the power-failure model; EB is the energy
	// budget in nJ: the capacitor's size, unless the schedule's Capacitor
	// member sets its own. When Intermittent is false the program runs to
	// completion on stable power (checkpoints still execute their
	// save/restore work so overheads remain visible).
	Intermittent bool
	EB           float64

	// Schedule, when non-nil, replaces the power model for intermittent
	// runs. Its Capacitor member (at most one; Exhaustion() or a
	// harvested one) configures the machine's capacitor; the machine
	// consults every other member at every injection point (instruction
	// boundaries, energy draws, and the before/mid/after phases of each
	// checkpoint save) and fails the supply when it says so. Without a
	// Capacitor member, capacitor physics is no longer implied — compose
	// with one via Schedules to keep it alongside induced failures.
	// Ignored when Intermittent is false.
	Schedule PowerSchedule

	// Inputs overrides the initial values of input-annotated variables,
	// keyed by variable name. Missing entries keep the declared Init.
	Inputs map[string][]int64

	// PrewarmVM materializes every block-allocated VM variable from its
	// NVM home at boot, free of charge — the "all data already in VM"
	// precondition of continuous-power reference measurements on modules
	// without checkpoints (which would otherwise read poison).
	PrewarmVM bool

	// MaxSteps bounds total executed instructions (0 = default 500M).
	// MaxFailures bounds power failures (0 = default 10M).
	MaxSteps    int64
	MaxFailures int

	// Resume, when non-nil, boots the run from a previously captured
	// persistent state instead of initial NVM: the run behaves exactly
	// like the continuation of an emulation that power-failed leaving
	// that state behind. The state must have been captured from the same
	// module. Mutually exclusive with Inputs and PrewarmVM (a resumed
	// state already fixes NVM contents). A resumed run executes like any
	// other: batched unless an Observer, Hook or schedule steps it.
	Resume *PersistentState

	// Hook, when non-nil, observes every schedulable injection point of
	// the run together with a canonical hash of the persistent state at
	// that point (see PointVisit). The model checker in internal/verify
	// is built on Hook + Resume. A hooked run steps every instruction
	// (each boundary is a visit) but computes the same Result as the
	// unhooked run.
	Hook Hook

	// Observer, when non-nil, receives the full cycle-stamped event
	// stream: block entries, returns, energy charges, checkpoint
	// save/restore, sleeps, power failures, re-execution spans, poison
	// reads. A nil observer costs nothing per instruction.
	Observer Observer

	// Counts, when non-nil, is a data sink, not a behaviour setting: the
	// run adds its control-flow counts to it (function entries, taken
	// branch arms, and instructions executed in total and batched; see
	// Counts). Counting never forces the stepped path and never changes
	// the Result. The trace profiler is built on it.
	Counts *Counts
}

// Verdict says how a run ended.
type Verdict int

const (
	// Completed: main returned.
	Completed Verdict = iota
	// Stuck: forward progress violation — repeated power failures with no
	// new progress (the endless re-execution the paper's guarantee rules
	// out).
	Stuck
	// VMOverflow: the resident VM working set exceeded SVM.
	VMOverflow
	// OutOfSteps: MaxSteps exhausted (treated as non-termination).
	OutOfSteps
	// OutOfFailures: MaxFailures exhausted — the run survived every
	// individual failure but the failure budget ran out before it
	// finished. Distinct from Stuck: the stagnation watchdogs saw
	// progress, there were just too many outages.
	OutOfFailures
)

func (v Verdict) String() string {
	switch v {
	case Completed:
		return "completed"
	case Stuck:
		return "stuck"
	case VMOverflow:
		return "vm-overflow"
	case OutOfSteps:
		return "out-of-steps"
	case OutOfFailures:
		return "out-of-failures"
	default:
		return fmt.Sprintf("verdict(%d)", int(v))
	}
}

// Ledger is the energy account of a run, in nJ.
type Ledger struct {
	// The four categories of Fig. 6.
	Computation float64
	Save        float64
	Restore     float64
	Reexecution float64

	// Fig. 7 split of Computation.
	VMAccessEnergy  float64
	NVMAccessEnergy float64
	NoMemEnergy     float64
	VMAccesses      int64
	NVMAccesses     int64
}

// Total returns the full energy drawn from the capacitor.
func (l Ledger) Total() float64 {
	return l.Computation + l.Save + l.Restore + l.Reexecution
}

// Intermittency returns the energy spent on intermittency management.
func (l Ledger) Intermittency() float64 { return l.Save + l.Restore + l.Reexecution }

// Result reports the outcome of a run.
type Result struct {
	Verdict Verdict
	Output  []int64
	Energy  Ledger

	Cycles        int64 // cycles of first-execution work (excludes re-execution)
	TotalCycles   int64 // including re-executed work
	Steps         int64 // instructions executed, including re-execution
	PowerFailures int
	Saves         int // checkpoint save operations performed
	Restores      int // restore operations (wait-checkpoint wake-ups and post-failure recoveries)
	Sleeps        int // wait-style replenishment periods
	MaxVMBytes    int // high-water mark of resident VM bytes

	// SaveAttempts counts checkpoint executions that decided to save,
	// whether or not the save committed (torn and power-failed attempts
	// count). It is the ordinal space PointBeforeSave/PointMidSave/
	// PointAfterSave schedules address.
	SaveAttempts int64
	// InjectedFailures counts power failures the schedule induced at
	// instruction boundaries and save phases. PowerFailures also counts
	// failures at energy draws, which are the capacitor's refusals (or
	// their replay) and never injections.
	InjectedFailures int

	// UnsyncedReads counts reads of VM storage that was never restored
	// (poison). Non-zero indicates a broken transformation.
	UnsyncedReads int
}

// ErrNoMain is returned when the module lacks a main function.
var ErrNoMain = errors.New("emulator: module has no main function")

// ErrInvalidConfig is the sentinel every ConfigError unwraps to, so
// callers can test errors.Is(err, ErrInvalidConfig) without enumerating
// fields.
var ErrInvalidConfig = errors.New("emulator: invalid config")

// ConfigError reports a Config field that fails validation. Run rejects
// invalid configurations up front instead of silently applying defaults
// or misbehaving mid-run.
type ConfigError struct {
	Field  string
	Reason string
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("emulator: invalid Config.%s: %s", e.Field, e.Reason)
}

func (e *ConfigError) Unwrap() error { return ErrInvalidConfig }

// Validate checks a Config for field-level mistakes. Zero values that
// select documented defaults (VMSize 0 → unlimited, MaxSteps/MaxFailures
// 0 → defaults) remain valid.
func (cfg Config) Validate() error {
	if cfg.Model == nil {
		return &ConfigError{Field: "Model", Reason: "must not be nil"}
	}
	if cfg.EB < 0 {
		return &ConfigError{Field: "EB", Reason: fmt.Sprintf("must not be negative, got %g", cfg.EB)}
	}
	if cfg.Intermittent && cfg.EB <= 0 {
		return &ConfigError{Field: "EB", Reason: "intermittent run needs EB > 0"}
	}
	if cfg.VMSize < 0 {
		return &ConfigError{Field: "VMSize", Reason: fmt.Sprintf("must not be negative (0 = unlimited), got %d", cfg.VMSize)}
	}
	if cfg.MaxSteps < 0 {
		return &ConfigError{Field: "MaxSteps", Reason: fmt.Sprintf("must not be negative, got %d", cfg.MaxSteps)}
	}
	if cfg.MaxFailures < 0 {
		return &ConfigError{Field: "MaxFailures", Reason: fmt.Sprintf("must not be negative, got %d", cfg.MaxFailures)}
	}
	var caps []string
	for _, m := range members(cfg.Schedule) {
		if _, ok := m.(Capacitor); ok {
			caps = append(caps, m.Name())
		}
	}
	if len(caps) > 1 {
		return &ConfigError{Field: "Schedule", Reason: fmt.Sprintf("composes two capacitors, %s and %s; a run has one", caps[0], caps[1])}
	}
	if cfg.Resume != nil {
		if len(cfg.Inputs) > 0 {
			return &ConfigError{Field: "Resume",
				Reason: "mutually exclusive with Inputs (the resumed state already fixes NVM contents)"}
		}
		if cfg.PrewarmVM {
			return &ConfigError{Field: "Resume", Reason: "mutually exclusive with PrewarmVM"}
		}
	}
	return nil
}

// Run executes the module under the given configuration.
func Run(m *ir.Module, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Model.Validate(); err != nil {
		return nil, err
	}
	if m.FuncByName("main") == nil {
		return nil, ErrNoMain
	}
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = 500_000_000
	}
	if cfg.MaxFailures == 0 {
		cfg.MaxFailures = 10_000_000
	}
	mach, err := newMachine(m, cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Resume != nil {
		if err := mach.installResume(cfg.Resume); err != nil {
			return nil, err
		}
	}
	res, err := mach.run()
	if c := cfg.Counts; c != nil {
		c.steps += mach.res.Steps
		c.batched += mach.batched
	}
	return res, err
}
