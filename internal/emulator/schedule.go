package emulator

import (
	"fmt"
	"math/rand"
	"strings"
)

// chargeEpsilon absorbs floating-point association differences between the
// compile-time analysis (which sums per block) and the emulator's
// per-instruction accounting when deciding whether a draw still fits in
// the capacitor.
const chargeEpsilon = 1e-6

// PointKind identifies a class of injection points: moments during an
// intermittent execution at which a PowerSchedule is consulted and may
// kill the supply.
type PointKind uint8

const (
	// PointStep is an instruction boundary, probed before the instruction
	// executes. Probe.Step is the 1-based index of the instruction about
	// to run (Probe.Occurrence equals it).
	PointStep PointKind = iota
	// PointCharge is an energy draw from the capacitor. Probe.Energy
	// carries the requested amount and Probe.Remaining the capacitor
	// level; the built-in exhaustion physics lives at this point.
	PointCharge
	// PointBeforeSave fires when a checkpoint has decided to save, before
	// any save energy is charged. Probe.Occurrence is the 1-based ordinal
	// of the save attempt within the run (torn and exhausted attempts
	// count too).
	PointBeforeSave
	// PointMidSave fires after the save energy was charged but before the
	// snapshot is committed. A failure here is a torn checkpoint (a
	// partial NVM write): the energy is lost, nothing reaches NVM, and
	// the previous recovery point stays in force.
	PointMidSave
	// PointAfterSave fires immediately after the snapshot committed,
	// before execution continues (or, for wait checkpoints, before the
	// replenishment sleep).
	PointAfterSave
)

func (k PointKind) String() string {
	switch k {
	case PointStep:
		return "step"
	case PointCharge:
		return "charge"
	case PointBeforeSave:
		return "before-save"
	case PointMidSave:
		return "mid-save"
	case PointAfterSave:
		return "after-save"
	default:
		return fmt.Sprintf("point(%d)", int(k))
	}
}

// ParsePointKind is the inverse of PointKind.String for the injectable
// kinds (PointCharge is the built-in physics and cannot be scheduled).
func ParsePointKind(s string) (PointKind, error) {
	switch s {
	case "step":
		return PointStep, nil
	case "before-save":
		return PointBeforeSave, nil
	case "mid-save":
		return PointMidSave, nil
	case "after-save":
		return PointAfterSave, nil
	default:
		return 0, fmt.Errorf("emulator: unknown injection point kind %q", s)
	}
}

// Probe carries the machine state a PowerSchedule decides on.
type Probe struct {
	Kind PointKind

	Step             int64 // instructions executed so far, including this one
	Cycle            int64 // Result.TotalCycles at the probe
	CyclesSincePower int64 // active cycles since the last replenishment

	// Occurrence is the per-kind ordinal the probe belongs to: the save
	// attempt number for the save points, the step index for PointStep
	// and PointCharge.
	Occurrence int64

	Site int // checkpoint site for save points, -1 otherwise

	Energy    float64 // PointCharge: requested draw, nJ
	Remaining float64 // capacitor level, nJ

	Failures int // power failures so far
}

// PowerSchedule decides when the supply dies. The machine consults the
// schedule at every injection point (see PointKind); returning true
// triggers a power failure there. Schedules are stateful and single-run:
// construct a fresh value for every emulation, or the fired/pending state
// of the previous run carries over.
//
// Setting Config.Schedule replaces the default power model entirely —
// compose with Exhaustion() (via Schedules) to keep capacitor physics in
// addition to induced failures.
type PowerSchedule interface {
	// Name identifies the schedule in reports and repro files.
	Name() string
	// Fail reports whether power fails at this probe.
	Fail(p Probe) bool
}

// ---- exhaustion (capacitor physics) ----

type exhaustion struct{}

// Exhaustion is the default power model: a failure occurs exactly when a
// requested energy draw no longer fits in the capacitor.
func Exhaustion() PowerSchedule { return exhaustion{} }

func (exhaustion) Name() string { return "exhaustion" }
func (exhaustion) Fail(p Probe) bool {
	return p.Kind == PointCharge && p.Remaining+chargeEpsilon < p.Energy
}

// ---- periodic (TBPF) ----

type periodic struct{ cycles int64 }

// Periodic fails at the first instruction boundary after the given number
// of active cycles has elapsed since the last replenishment — the literal
// "periodic power failures of period TBPF" of the paper's emulator (IV-C).
func Periodic(cycles int64) PowerSchedule { return &periodic{cycles: cycles} }

func (s *periodic) Name() string { return fmt.Sprintf("periodic(%d)", s.cycles) }
func (s *periodic) Fail(p Probe) bool {
	return p.Kind == PointStep && s.cycles > 0 && p.CyclesSincePower >= s.cycles
}

// ---- trace-driven (replayable failure-point list) ----

// FailPoint is one entry of a trace-driven schedule: fail at the first
// probe of the given kind whose occurrence ordinal reaches N (the step
// index for PointStep, the save-attempt ordinal for the save points).
// Each point fires at most once.
type FailPoint struct {
	Kind PointKind
	N    int64
}

func (fp FailPoint) String() string { return fmt.Sprintf("%v@%d", fp.Kind, fp.N) }

type traceSchedule struct {
	points []FailPoint
	fired  []bool
}

// TraceSchedule replays an explicit failure-point list. Points firing on
// the same probe are coalesced into a single failure.
func TraceSchedule(points ...FailPoint) PowerSchedule {
	return &traceSchedule{
		points: append([]FailPoint(nil), points...),
		fired:  make([]bool, len(points)),
	}
}

func (s *traceSchedule) Name() string {
	parts := make([]string, len(s.points))
	for i, fp := range s.points {
		parts[i] = fp.String()
	}
	return "trace(" + strings.Join(parts, ",") + ")"
}

func (s *traceSchedule) Fail(p Probe) bool {
	hit := false
	for i, fp := range s.points {
		if s.fired[i] || fp.Kind != p.Kind {
			continue
		}
		if p.Occurrence >= fp.N {
			s.fired[i] = true
			hit = true
		}
	}
	return hit
}

// ---- seeded random ----

type randomSchedule struct {
	seed, mean int64
	r          *rand.Rand
	next       int64
	left       int // remaining failures; <0 = unlimited
}

// RandomSchedule fails at seeded-random instruction boundaries with
// uniform gaps averaging meanGapSteps. maxFailures bounds the induced
// failures (0 = unlimited). Identical seeds replay identically.
func RandomSchedule(seed, meanGapSteps int64, maxFailures int) PowerSchedule {
	if meanGapSteps < 1 {
		meanGapSteps = 1
	}
	left := maxFailures
	if maxFailures <= 0 {
		left = -1
	}
	r := rand.New(rand.NewSource(seed))
	return &randomSchedule{seed: seed, mean: meanGapSteps, r: r, next: 1 + r.Int63n(2*meanGapSteps), left: left}
}

func (s *randomSchedule) Name() string {
	return fmt.Sprintf("random(seed=%d,mean=%d)", s.seed, s.mean)
}

func (s *randomSchedule) Fail(p Probe) bool {
	if p.Kind != PointStep || s.left == 0 || p.Step < s.next {
		return false
	}
	if s.left > 0 {
		s.left--
	}
	s.next = p.Step + 1 + s.r.Int63n(2*s.mean)
	return true
}

// ---- every-Nth instruction boundary ----

type strideSchedule struct {
	n    int64
	next int64
	left int
}

// StrideSchedule fails at every n-th instruction boundary (steps n, 2n,
// …), up to maxFailures induced failures (0 = unlimited). Keep
// maxFailures well below the emulator's stagnation threshold when n is
// small, or the run is (correctly) declared stuck.
func StrideSchedule(n int64, maxFailures int) PowerSchedule {
	if n < 1 {
		n = 1
	}
	left := maxFailures
	if maxFailures <= 0 {
		left = -1
	}
	return &strideSchedule{n: n, next: n, left: left}
}

func (s *strideSchedule) Name() string { return fmt.Sprintf("stride(%d)", s.n) }

func (s *strideSchedule) Fail(p Probe) bool {
	if p.Kind != PointStep || s.left == 0 || p.Step < s.next {
		return false
	}
	if s.left > 0 {
		s.left--
	}
	s.next = p.Step + s.n
	return true
}

// ---- composition ----

type comboSchedule []PowerSchedule

func (c comboSchedule) Name() string {
	parts := make([]string, len(c))
	for i, s := range c {
		parts[i] = s.Name()
	}
	return strings.Join(parts, "+")
}

// Fail asks every member, so stateful members observe every probe even
// when an earlier member already failed it.
func (c comboSchedule) Fail(p Probe) bool {
	hit := false
	for _, s := range c {
		if s.Fail(p) {
			hit = true
		}
	}
	return hit
}

// Schedules composes several schedules into one that fails whenever any
// member fails, ignoring nil entries. It returns nil when no schedule
// remains and the schedule itself when only one does.
func Schedules(ss ...PowerSchedule) PowerSchedule {
	var list comboSchedule
	for _, s := range ss {
		if s == nil {
			continue
		}
		if sub, ok := s.(comboSchedule); ok {
			list = append(list, sub...)
			continue
		}
		list = append(list, s)
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

// resolveSchedule returns the run's effective schedule. A nil
// Config.Schedule selects the default power model: capacitor exhaustion.
func resolveSchedule(cfg Config) PowerSchedule {
	if !cfg.Intermittent {
		return nil
	}
	if cfg.Schedule != nil {
		return cfg.Schedule
	}
	return Exhaustion()
}

// splitExhaustion separates built-in exhaustion physics from the rest of
// a resolved schedule, so the (very hot) per-charge check stays an inline
// float comparison instead of an interface call. The remainder is nil
// when nothing but exhaustion is scheduled — the common case, in which
// per-instruction probing is skipped entirely.
func splitExhaustion(s PowerSchedule) (exhaust bool, rest PowerSchedule) {
	switch x := s.(type) {
	case nil:
		return false, nil
	case exhaustion:
		return true, nil
	case comboSchedule:
		var rem comboSchedule
		for _, m := range x {
			if _, ok := m.(exhaustion); ok {
				exhaust = true
				continue
			}
			rem = append(rem, m)
		}
		switch len(rem) {
		case 0:
			return exhaust, nil
		case 1:
			return exhaust, rem[0]
		default:
			return exhaust, rem
		}
	default:
		return false, s
	}
}
