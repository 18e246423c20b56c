// Package harvest models harvested-energy environments for the
// intermittent emulator: deterministic incoming-power waveforms (solar
// diurnal cycles with cloud noise, bursty RF, piezo vibration,
// duty-cycled regulators, imported measurement traces), a Capacitor
// that feeds one of them into the emulator's own capacitor, and a trace
// recorder/replayer that turns any run's failure history into a
// versioned NDJSON artifact reproducing the original Result
// byte-identically.
//
// Harvest only supplies power: the emulator owns the one capacitor
// level, which is what refuses draws, what MEMENTOS measures and what
// traces record. Everything adapts onto emulator.PowerSchedule, so
// every existing surface (iemu, crashtest, verify, /v1/emulate,
// /v1/grid) gains harvested scenarios without per-surface work.
package harvest

import (
	"fmt"
	"math"

	"schematic/internal/emulator"
)

// Environment is a deterministic harvested-power waveform: Power
// reports the incoming power at an environment cycle, in nJ per cycle
// (the same unit energy.Model charges per instruction). Power must be a
// pure function of (receiver, cycle) — no internal state — so identical
// seeds yield identical runs and a replay needs no waveform at all. Its
// value must be finite and at least 0: the emulator batches a harvested
// run because harvest-in never lowers the level, and ends a run whose
// environment breaks the rule with an emulator.ConfigError.
type Environment = emulator.Supply

// noise01 hashes (seed, index) into [0, 1) with a splitmix64-style
// finalizer: stateless, so waveform noise is a pure function of time.
func noise01(seed, idx int64) float64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(idx)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
}

func defF(v, d float64) float64 {
	if v == 0 {
		return d
	}
	return v
}

func defI(v, d int64) int64 {
	if v == 0 {
		return d
	}
	return v
}

// Solar is a diurnal waveform: a half-sine daylight arc over a fraction
// of each period, zero at night, attenuated by seeded cloud fronts that
// hold for Window cycles each. Zero-valued fields select defaults.
type Solar struct {
	Seed   int64   // cloud-noise seed (default 1)
	Peak   float64 // midday incoming power, nJ/cycle (default 0.8)
	Period int64   // full diurnal period, cycles (default 2e6)
	Day    float64 // daylight fraction of the period in (0,1] (default 0.5)
	Cloud  float64 // cloud attenuation depth in [0,1] (default 0.4)
	Window int64   // cloud-front hold length, cycles (default Period/50)
}

func (s Solar) norm() Solar {
	s.Seed = defI(s.Seed, 1)
	s.Peak = defF(s.Peak, 0.8)
	s.Period = defI(s.Period, 2_000_000)
	s.Day = defF(s.Day, 0.5)
	s.Cloud = defF(s.Cloud, 0.4)
	s.Window = defI(s.Window, s.Period/50)
	return s
}

func (s Solar) Name() string {
	s = s.norm()
	return fmt.Sprintf("solar(seed=%d,peak=%g,period=%d,day=%g,cloud=%g,window=%d)",
		s.Seed, s.Peak, s.Period, s.Day, s.Cloud, s.Window)
}

func (s Solar) Power(cycle int64) float64 {
	s = s.norm()
	t := cycle % s.Period
	daylight := float64(s.Period) * s.Day
	if float64(t) >= daylight {
		return 0
	}
	p := s.Peak * math.Sin(math.Pi*float64(t)/daylight)
	if s.Cloud > 0 {
		p *= 1 - s.Cloud*noise01(s.Seed, cycle/s.Window)
	}
	return p
}

// RF is a bursty radio-frequency source: within each window of
// Burst+Gap cycles, a seeded offset places one burst of roughly Burst
// cycles at constant power; the rest of the window is silent.
type RF struct {
	Seed  int64   // burst-placement seed (default 1)
	Peak  float64 // in-burst incoming power, nJ/cycle (default 1.5)
	Burst int64   // nominal burst length, cycles (default 20_000)
	Gap   int64   // nominal inter-burst gap, cycles (default 60_000)
}

func (r RF) norm() RF {
	r.Seed = defI(r.Seed, 1)
	r.Peak = defF(r.Peak, 1.5)
	r.Burst = defI(r.Burst, 20_000)
	r.Gap = defI(r.Gap, 60_000)
	return r
}

func (r RF) Name() string {
	r = r.norm()
	return fmt.Sprintf("rf(seed=%d,power=%g,burst=%d,gap=%d)", r.Seed, r.Peak, r.Burst, r.Gap)
}

func (r RF) Power(cycle int64) float64 {
	r = r.norm()
	window := r.Burst + r.Gap
	i := cycle / window
	// Burst length wobbles in [0.5, 1.5)×Burst; the start offset keeps
	// the whole burst inside its window.
	length := int64(float64(r.Burst) * (0.5 + noise01(r.Seed, 2*i)))
	if length > window {
		length = window
	}
	start := int64(noise01(r.Seed, 2*i+1) * float64(window-length))
	off := cycle % window
	if off >= start && off < start+length {
		return r.Peak
	}
	return 0
}

// Piezo is a vibration harvester: a rectified sine at a fixed
// mechanical period.
type Piezo struct {
	Peak   float64 // peak incoming power, nJ/cycle (default 0.6)
	Period int64   // vibration period, cycles (default 40_000)
}

func (p Piezo) norm() Piezo {
	p.Peak = defF(p.Peak, 0.6)
	p.Period = defI(p.Period, 40_000)
	return p
}

func (p Piezo) Name() string {
	p = p.norm()
	return fmt.Sprintf("piezo(peak=%g,period=%d)", p.Peak, p.Period)
}

func (p Piezo) Power(cycle int64) float64 {
	p = p.norm()
	return p.Peak * math.Abs(math.Sin(math.Pi*float64(cycle%p.Period)/float64(p.Period)))
}

// Duty is a duty-cycled regulator: full power for the first Frac
// fraction of every period, nothing for the rest.
type Duty struct {
	Peak   float64 // on-phase incoming power, nJ/cycle (default 1.0)
	Period int64   // regulator period, cycles (default 100_000)
	Frac   float64 // on fraction of the period in (0,1] (default 0.35)
}

func (d Duty) norm() Duty {
	d.Peak = defF(d.Peak, 1.0)
	d.Period = defI(d.Period, 100_000)
	d.Frac = defF(d.Frac, 0.35)
	return d
}

func (d Duty) Name() string {
	d = d.norm()
	return fmt.Sprintf("duty(power=%g,period=%d,duty=%g)", d.Peak, d.Period, d.Frac)
}

func (d Duty) Power(cycle int64) float64 {
	d = d.norm()
	if float64(cycle%d.Period) < float64(d.Period)*d.Frac {
		return d.Peak
	}
	return 0
}
