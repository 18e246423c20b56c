package emulator

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// squareSupply delivers peak nJ/cycle for the first on cycles of every
// period and nothing for the rest.
type squareSupply struct {
	peak       float64
	on, period int64
}

func (s squareSupply) Name() string { return "square" }
func (s squareSupply) Power(c int64) float64 {
	if c%s.period < s.on {
		return s.peak
	}
	return 0
}

// sineSupply is a rectified sine of the given peak and period.
type sineSupply struct {
	peak   float64
	period int64
}

func (s sineSupply) Name() string { return "sine" }
func (s sineSupply) Power(c int64) float64 {
	return s.peak * math.Abs(math.Sin(math.Pi*float64(c%s.period)/float64(s.period)))
}

// Property test: under an arbitrary stream of active time, draws, sleeps
// and outages, the capacitor level stays within [0, capacity], a refused
// draw leaves the level untouched, and a recharge reaches its target.
func TestCapacitorLevelBounds(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	m := loopProgram(t, 3, 0, false)
	for trial := 0; trial < 20; trial++ {
		cfg := baseCfg()
		cfg.Intermittent, cfg.EB = true, 1e9
		cfg.Schedule = Capacitor{
			Capacity: 200 + r.Float64()*2000, Restart: 0.25 + r.Float64()*0.75,
			Supply: []Supply{
				sineSupply{peak: 0.6, period: 1_000},
				squareSupply{peak: 1, on: 1_500, period: 5_000},
				sineSupply{peak: 0.3, period: 50_000},
				squareSupply{peak: 1.5, on: 200, period: 900},
			}[trial%4],
		}
		mc, err := newMachine(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		s := &mc.store
		check := func(i int, what string) {
			if s.level < 0 || s.level > s.capacity {
				t.Fatalf("trial %d op %d (%s): level %g outside [0, %g]", trial, i, what, s.level, s.capacity)
			}
		}
		for i := 0; i < 3000; i++ {
			mc.res.TotalCycles += r.Int63n(500)
			s.harvest(mc.res.TotalCycles)
			check(i, "harvest")
			if r.Intn(40) == 0 {
				s.recharge(s.capacity) // planned sleep
				if s.level != s.capacity {
					t.Fatalf("trial %d op %d: sleep recharged to %g, want %g", trial, i, s.level, s.capacity)
				}
				continue
			}
			before := s.level
			if mc.charge(r.Float64()*s.capacity*0.4, chComp) {
				check(i, "draw")
				continue
			}
			if s.level != before {
				t.Fatalf("trial %d op %d: refused draw drained the level", trial, i)
			}
			s.recharge(s.restart) // outage
			if s.level < s.restart {
				t.Fatalf("trial %d op %d: outage recharged to %g, below restart %g", trial, i, s.level, s.restart)
			}
			check(i, "outage")
		}
	}
}

// The integral of the supply must not depend on how the active time is
// sliced between integration points: the sampling grid is fixed.
func TestIntegrateSliceIndependent(t *testing.T) {
	mk := func() store {
		s := newStore(&Capacitor{Capacity: 1e9, Supply: sineSupply{peak: 0.8, period: 10_000}}, 1e9)
		s.level = 0
		return s
	}
	a, b := mk(), mk()
	a.harvest(9_777)
	r := rand.New(rand.NewSource(3))
	for now := int64(0); now < 9_777; {
		now = min(now+1+r.Int63n(300), 9_777)
		b.harvest(now)
	}
	// The sampling grid is slice-independent; float summation order is
	// only equal up to rounding.
	if d := a.level - b.level; d > 1e-9 || d < -1e-9 || a.env != b.env || a.at != b.at {
		t.Fatalf("slicing changed the integral: %g/%d vs %g/%d", a.level, a.env, b.level, b.env)
	}
}

// A recharge under a supply that delivers nothing spends the bounded
// off time and then clamps to its target, so the device still boots.
func TestRechargeBoundedOffTime(t *testing.T) {
	s := newStore(&Capacitor{Capacity: 1000, Restart: 0.5, Supply: squareSupply{peak: 1, on: 0, period: 1}}, 1e9)
	s.level = 10
	s.recharge(s.restart)
	if s.level != 500 || s.env != maxOff {
		t.Fatalf("dead-supply outage: level %g after %d cycles, want 500 after %d", s.level, s.env, maxOff)
	}
	// Without a supply a recharge is a plain assignment.
	bare := newStore(nil, 700)
	bare.level -= 650
	bare.recharge(bare.restart)
	if bare.level != 700 || bare.env != 0 {
		t.Fatalf("no-supply outage: level %g, env %d", bare.level, bare.env)
	}
}

// spoiledSupply delivers 0.1 nJ/cycle before cycle from and bad after.
type spoiledSupply struct {
	from int64
	bad  float64
}

func (s spoiledSupply) Name() string { return fmt.Sprintf("spoiled(%g@%d)", s.bad, s.from) }
func (s spoiledSupply) Power(c int64) float64 {
	if c < s.from {
		return 0.1
	}
	return s.bad
}

// A supply sample that is negative or not finite breaks the rule that
// makes a supplied run safe to batch, so the run ends with a ConfigError
// naming the Schedule, the supply, the sampled cycle and the value: on
// the batched path, where a batch's redo draws the sample, and under a
// per-instruction observer alike.
func TestSupplyFailsClosed(t *testing.T) {
	m := loopProgram(t, 400, -1, false)
	for _, bad := range []float64{-0.25, math.NaN(), math.Inf(1)} {
		for _, observed := range []bool{false, true} {
			sup := spoiledSupply{from: 1000, bad: bad}
			cfg := baseCfg()
			cfg.Intermittent, cfg.EB = true, 1e6
			cfg.Schedule = Capacitor{Supply: sup}
			cfg.Counts = &Counts{}
			if observed {
				cfg.Observer = observerFunc(func(Event) {})
			}
			res, err := Run(m, cfg)
			var ce *ConfigError
			if !errors.As(err, &ce) || ce.Field != "Schedule" || res != nil {
				t.Fatalf("%s, observed %v: got %v, %v; want a Schedule ConfigError", sup.Name(), observed, res, err)
			}
			for _, want := range []string{sup.Name(), "cycle 1024", fmt.Sprintf("delivers %g ", bad)} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("%s, observed %v: error %q does not name %q", sup.Name(), observed, err, want)
				}
			}
			if batched := cfg.Counts.BatchedSteps(); observed != (batched == 0) {
				t.Errorf("%s, observed %v: %d of %d instructions batched before the fault",
					sup.Name(), observed, batched, cfg.Counts.Steps())
			}
		}
	}
}
