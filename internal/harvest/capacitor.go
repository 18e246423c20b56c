package harvest

import "schematic/internal/emulator"

// Capacitor is a storage buffer that Env charges while the machine draws
// energy out. It only sizes the emulator's own capacitor and supplies
// power: the emulator keeps the level, fails the draws it cannot cover
// and recharges after a brown-out to Restart×Capacity and after a
// wait-checkpoint sleep to full (see emulator.Capacitor).
//
// With Capacity equal to the run's energy budget EB and Restart = 1,
// harvesting only adds energy over the exhaustion physics, so it never
// fails a draw exhaustion would have allowed: wait-style placements
// keep their zero-power-failure contract under any environment.
type Capacitor struct {
	Env      Environment
	Capacity float64 // storage size, nJ; the level starts full (0 = the run's EB)
	Restart  float64 // post-outage boot threshold, fraction of Capacity (0 = 1.0)
}

// Schedule returns the capacitor as a schedule member. Compose it with
// injection schedules through emulator.Schedules; a run takes at most
// one capacitor.
func (c Capacitor) Schedule() emulator.PowerSchedule {
	return emulator.Capacitor{Capacity: c.Capacity, Restart: c.Restart, Supply: c.Env}
}
