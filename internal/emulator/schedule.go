package emulator

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
)

// chargeEpsilon absorbs floating-point association differences between the
// compile-time analysis (which sums per block) and the emulator's
// per-instruction accounting when deciding whether a draw still fits in
// the capacitor.
const chargeEpsilon = 1e-6

// PointKind identifies a class of injection points: moments during an
// intermittent execution at which a PowerSchedule is consulted and may
// kill the supply. Each probe of a kind carries that kind's 1-based
// ordinal within the run.
type PointKind uint8

const (
	// PointStep is an instruction boundary, probed before the instruction
	// executes. Its ordinal is the index of the instruction about to run.
	PointStep PointKind = iota
	// PointCharge is an energy draw from the capacitor. Its ordinal is the
	// run's charge ordinal: it advances once per draw, refused or not, and
	// several draws can share a step. The capacitor's own refusals live
	// at this point; a failure here is physics (or its replay), never an
	// injection.
	PointCharge
	// PointBeforeSave fires when a checkpoint has decided to save, before
	// any save energy is charged. Its ordinal, like the other save
	// points', is the save attempt's within the run (torn and exhausted
	// attempts count too).
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

// pointNames is the one name table of the point kinds.
var pointNames = [...]string{
	PointStep:       "step",
	PointCharge:     "charge",
	PointBeforeSave: "before-save",
	PointMidSave:    "mid-save",
	PointAfterSave:  "after-save",
}

func (k PointKind) String() string {
	if int(k) < len(pointNames) {
		return pointNames[k]
	}
	return fmt.Sprintf("point(%d)", int(k))
}

// LookupPointKind is the inverse of PointKind.String over every kind,
// PointCharge included: a recorded trace names the capacitor's refusals
// by their charge ordinal.
func LookupPointKind(s string) (PointKind, bool) {
	for k, name := range pointNames {
		if name == s {
			return PointKind(k), true
		}
	}
	return 0, false
}

// ParsePointKind is LookupPointKind restricted to the injectable kinds:
// PointCharge is the capacitor's own refusal point, which a recorded
// trace replays but an injection spec cannot schedule.
func ParsePointKind(s string) (PointKind, error) {
	k, ok := LookupPointKind(s)
	switch {
	case !ok:
		return 0, fmt.Errorf("emulator: unknown injection point kind %q", s)
	case k == PointCharge:
		return 0, fmt.Errorf("emulator: %q is the capacitor's refusal point, not an injection point", s)
	}
	return k, nil
}

// PowerSchedule decides when the supply dies. The set is closed: a
// capacitor (Capacitor, Exhaustion), Periodic, TraceSchedule,
// RandomSchedule, StrideSchedule, and their composition by Schedules.
// Schedules are stateful and single-run: construct a fresh value for
// every emulation, or the fired state of the previous run carries over.
//
// Setting Config.Schedule replaces the default power model entirely —
// compose with a Capacitor (Exhaustion(), or a harvested one from
// internal/harvest) via Schedules to keep capacitor physics in addition
// to induced failures.
//
// A member's horizon is its one firing rule: the supply dies at every
// probe that reaches it, and nowhere else. A run batches up to it and
// steps only from there.
type PowerSchedule interface {
	// Name identifies the schedule in reports and repro files.
	Name() string
	// horizon is where the schedule next fails.
	horizon() horizon
	// advance moves the schedule past the kind-k probe with ordinal n,
	// which reached its horizon.
	advance(k PointKind, n int64)
}

// never is a horizon no run reaches, with room to add a run's counts to.
const never = math.MaxInt64 / 2

// horizon is where a schedule next fails: at the first probe of each
// kind k whose ordinal reaches at[k], and at the first step probe whose
// active cycles since the last replenishment reach period; never where
// it cannot. A horizon moves only when a probe reaches it, and every
// such probe ends in a power failure.
type horizon struct {
	at     [len(pointNames)]int64
	period int64
}

// nowhere is the horizon of a schedule that cannot fail.
func nowhere() horizon {
	h := horizon{period: never}
	for k := range h.at {
		h.at[k] = never
	}
	return h
}

// ---- the capacitor ----

// SupplyQuantum is the supply's sampling grid, in cycles: harvest-in is
// integrated piecewise-constantly at each quantum's starting power, so
// it never depends on where the machine integrates.
const SupplyQuantum = 64

// maxOff bounds one simulated outage or sleep, in cycles, so a supply
// that delivers nothing (solar at night) still reboots.
const maxOff = 200_000_000

// Supply is a harvested-power source: Power reports the incoming power
// at an environment cycle, in nJ per cycle. It must be a pure function
// of (receiver, cycle), and its value finite and at least 0: the machine
// samples it once per SupplyQuantum, and batches a supplied run only
// because harvest-in never lowers the level. A run whose supply breaks
// the rule at a sampled cycle ends with a ConfigError naming the
// Schedule. internal/harvest provides the waveforms.
type Supply interface {
	Name() string
	Power(cycle int64) float64
}

// Capacitor is the schedule member that configures the machine's one
// capacitor; the machine takes it out of the schedule and applies it
// itself. A draw the level cannot cover is a power failure (physics,
// never an injection). Harvest-in from Supply is integrated before
// every draw, injection, sleep and failure. An outage recharges the level to
// Restart×Capacity and a wait-checkpoint sleep to full, on the supply
// within maxOff cycles and then by clamping; without a supply both are
// plain assignments. Run rejects two Capacitors. Without one, the level
// is tracked from EB but never refuses a draw.
type Capacitor struct {
	Capacity float64 // nJ, starting full; 0 = Config.EB
	Restart  float64 // reboot level after an outage, fraction of Capacity (0 = 1)
	Supply   Supply  // harvest-in; nil = none
}

// Exhaustion is the default power model: a capacitor of Config.EB with
// no supply, so a failure occurs exactly when a draw no longer fits.
func Exhaustion() PowerSchedule { return Capacitor{} }

func (c Capacitor) Name() string {
	if c == (Capacitor{}) {
		return "exhaustion"
	}
	supply := "none"
	if c.Supply != nil {
		supply = c.Supply.Name()
	}
	return fmt.Sprintf("harvest(%s,cap=%g,restart=%g)", supply, c.Capacity, c.restart())
}

func (c Capacitor) restart() float64 {
	if c.Restart == 0 {
		return 1
	}
	return c.Restart
}

// The machine applies its capacitor member inline, so as a member it
// never fails.
func (Capacitor) horizon() horizon         { return nowhere() }
func (Capacitor) advance(PointKind, int64) {}

// store is the machine's capacitor state (see Capacitor).
type store struct {
	level, capacity float64 // nJ; intermittent runs keep level within [0, capacity]
	restart         float64 // reboot level after an outage, nJ
	enforce         bool    // a Capacitor is scheduled: refuse draws the level cannot cover
	supply          Supply
	env, at         int64 // supply time (active plus off cycles); machine cycle integrated up to
	// power caches the supply's sample of the quantum that ends at supply
	// cycle end; env only grows, so the sample holds while env < end.
	power float64
	end   int64
}

// newStore builds the store a capacitor member (nil: none) configures
// for a run with energy budget eb.
func newStore(c *Capacitor, eb float64) store {
	if c == nil {
		return store{level: eb, capacity: eb, restart: eb}
	}
	capacity := eb
	if c.Capacity > 0 {
		capacity = c.Capacity
	}
	return store{level: capacity, capacity: capacity, restart: min(c.restart(), 1) * capacity,
		enforce: true, supply: c.Supply}
}

// harvest integrates the supply over the active cycles up to machine
// cycle now, clamping to capacity at every quantum.
func (s *store) harvest(now int64) {
	if s.supply != nil {
		s.level = s.harvested(s.level, now)
	}
}

// harvested is harvest on a level the caller holds: it returns level
// plus the harvest-in over the active cycles up to machine cycle now,
// clamped to capacity at every quantum. A batch's redo (redraw) keeps
// the level in a register across its draws this way.
func (s *store) harvested(level float64, now int64) float64 {
	for s.at < now {
		step := s.advance(now - s.at)
		level = clamp(level+s.power*float64(step), s.capacity)
		s.at += step
	}
	return level
}

// clamp holds a capacitor level within [0, capacity] by compare and
// assign: the floor after a draw and the cap after harvest-in. It
// differs from max(min(level, capacity), 0) only for NaN and −0, which
// a finite, non-negative level never holds, and spends no test on them.
func clamp(level, capacity float64) float64 {
	if level < 0 {
		return 0
	}
	if level > capacity {
		return capacity
	}
	return level
}

// recharge simulates off time: the supply charges the level until it
// reaches target or maxOff cycles pass, then the level clamps to target.
func (s *store) recharge(target float64) {
	for off := int64(0); s.supply != nil && s.level+chargeEpsilon < target && off < maxOff; {
		step := s.advance(maxOff - off)
		s.level += s.power * float64(step)
		off += step
	}
	s.level = min(max(s.level, target), s.capacity)
}

// advance moves supply time to the end of the current quantum, or by
// budget cycles if that is sooner, and returns the cycles advanced; the
// harvest over them is at the quantum's sampled power, s.power.
func (s *store) advance(budget int64) int64 {
	if s.env >= s.end {
		s.sample()
	}
	step := min(s.end-s.env, budget)
	s.env += step
	return step
}

// sample caches the supply's power over the quantum that supply time is
// in. Power is a pure function of the cycle, so the cache changes no
// result. A value Supply rules out ends the run.
func (s *store) sample() {
	q := s.env - s.env%SupplyQuantum
	p := s.supply.Power(q)
	if !(p >= 0) || math.IsInf(p, 1) {
		panic(supplyFault{&ConfigError{Field: "Schedule", Reason: fmt.Sprintf(
			"supply %s delivers %g nJ/cycle at cycle %d; its power must be finite and at least 0",
			s.supply.Name(), p, q)}})
	}
	s.power, s.end = p, q+SupplyQuantum
}

// supplyFault carries a supply sample that breaks Supply's contract out
// of the machine, from wherever the capacitor integrates; machine.run
// recovers it and returns its error. Samples are checked only when the
// cache misses, so the check costs nothing per instruction.
type supplyFault struct{ err *ConfigError }

// ---- periodic (TBPF) ----

type periodic struct{ cycles int64 }

// Periodic fails at the first instruction boundary after the given number
// of active cycles has elapsed since the last replenishment — the literal
// "periodic power failures of period TBPF" of the paper's emulator (IV-C).
func Periodic(cycles int64) PowerSchedule { return &periodic{cycles: cycles} }

func (s *periodic) Name() string { return fmt.Sprintf("periodic(%d)", s.cycles) }

func (s *periodic) horizon() horizon {
	h := nowhere()
	if s.cycles > 0 {
		h.period = s.cycles
	}
	return h
}

// advance has nothing to move: the power failure resets the cycles
// since the last replenishment.
func (*periodic) advance(PointKind, int64) {}

// ---- trace-driven (replayable failure-point list) ----

// FailPoint is one entry of a trace-driven schedule: fail at the first
// probe of the given kind whose ordinal reaches N (see PointKind). Each
// point fires at most once.
type FailPoint struct {
	Kind PointKind
	N    int64
}

func (fp FailPoint) String() string { return fmt.Sprintf("%v@%d", fp.Kind, fp.N) }

type traceSchedule struct {
	points []FailPoint
	// due holds each kind's ordinals in ascending order; next[k] is the
	// first of due[k] that has not fired.
	due  [len(pointNames)][]int64
	next [len(pointNames)]int
}

// TraceSchedule replays an explicit failure-point list, given in any
// order: each point fires at the first probe of its kind whose
// ordinal reaches N, and points that hit the same probe coalesce into
// one failure. It is the one replay of a failure-point list: injection
// specs, crash repros and recorded harvest traces all run through it.
// A probe costs O(1) amortized, however long the list.
func TraceSchedule(points ...FailPoint) PowerSchedule {
	s := &traceSchedule{points: append([]FailPoint(nil), points...)}
	for _, fp := range points {
		if int(fp.Kind) < len(s.due) {
			s.due[fp.Kind] = append(s.due[fp.Kind], fp.N)
		}
	}
	for _, due := range s.due {
		slices.Sort(due)
	}
	return s
}

func (s *traceSchedule) Name() string {
	parts := make([]string, len(s.points))
	for i, fp := range s.points {
		parts[i] = fp.String()
	}
	return "trace(" + strings.Join(parts, ",") + ")"
}

// horizon is each kind's first ordinal that has not fired.
func (s *traceSchedule) horizon() horizon {
	h := nowhere()
	for k, due := range s.due {
		if i := s.next[k]; i < len(due) {
			h.at[k] = due[i]
		}
	}
	return h
}

// advance fires every kind-k point up to n: they coalesce.
func (s *traceSchedule) advance(k PointKind, n int64) {
	due, i := s.due[k], s.next[k]
	for i < len(due) && due[i] <= n {
		i++
	}
	s.next[k] = i
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

func (s *randomSchedule) horizon() horizon { return stepHorizon(s.next, s.left) }

func (s *randomSchedule) advance(_ PointKind, n int64) {
	if s.left > 0 {
		s.left--
	}
	s.next = n + 1 + s.r.Int63n(2*s.mean)
}

// stepHorizon is the horizon of a member that fails at step next while
// it has failures left.
func stepHorizon(next int64, left int) horizon {
	h := nowhere()
	if left != 0 {
		h.at[PointStep] = next
	}
	return h
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

func (s *strideSchedule) horizon() horizon { return stepHorizon(s.next, s.left) }

func (s *strideSchedule) advance(_ PointKind, n int64) {
	if s.left > 0 {
		s.left--
	}
	s.next = n + s.n
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

// horizon is the earliest of the members' horizons, kind by kind.
func (c comboSchedule) horizon() horizon {
	h := nowhere()
	for _, s := range c {
		mh := s.horizon()
		for k := range h.at {
			h.at[k] = min(h.at[k], mh.at[k])
		}
		h.period = min(h.period, mh.period)
	}
	return h
}

// advance moves the members whose step, charge or save horizon the
// probe reached, and only those. A Periodic has nothing to move.
func (c comboSchedule) advance(k PointKind, n int64) {
	for _, s := range c {
		if n >= s.horizon().at[k] {
			s.advance(k, n)
		}
	}
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

// members lists a schedule's members: a composition's, or s itself.
func members(s PowerSchedule) []PowerSchedule {
	if c, ok := s.(comboSchedule); ok {
		return c
	}
	if s == nil {
		return nil
	}
	return []PowerSchedule{s}
}

// splitExhaustion resolves the run's schedule — a nil Config.Schedule
// selects capacitor exhaustion — and takes its capacitor member (nil
// when there is none) out, so the machine applies it inline. The rest
// is nil when nothing but the capacitor is scheduled — the common case,
// in which no probe fails.
func splitExhaustion(cfg Config) (c *Capacitor, rest PowerSchedule) {
	if !cfg.Intermittent {
		return nil, nil
	}
	if cfg.Schedule == nil {
		return &Capacitor{}, nil
	}
	var others []PowerSchedule
	for _, m := range members(cfg.Schedule) {
		if x, ok := m.(Capacitor); ok && c == nil {
			c = &x
			continue
		}
		others = append(others, m)
	}
	return c, Schedules(others...)
}
