package bench

import (
	"context"
	"fmt"
	"testing"

	"schematic/internal/baselines"
	"schematic/internal/emulator"
	"schematic/internal/ir"
)

// levelProbe is a schedule member that never fails and checks every
// Probe.Remaining it is shown against [0, capacity].
type levelProbe struct {
	t        *testing.T
	label    string
	capacity float64
	probes   int
}

func (p *levelProbe) Name() string { return "level-probe" }

func (p *levelProbe) Fail(pr emulator.Probe) bool {
	p.probes++
	if pr.Remaining < 0 || pr.Remaining > p.capacity {
		p.t.Fatalf("%s: %v probe at step %d saw level %g outside [0, %g]", p.label, pr.Kind, pr.Step, pr.Remaining, p.capacity)
	}
	return false
}

type levelObserver struct {
	probe  *levelProbe
	events int
}

func (o *levelObserver) Event(e emulator.Event) {
	switch e.Kind {
	case emulator.EvCharge, emulator.EvPowerFailure, emulator.EvSleepStart, emulator.EvSleepEnd, emulator.EvInjection:
		o.events++
		if e.CapEnergy < 0 || e.CapEnergy > o.probe.capacity {
			o.probe.t.Fatalf("%s: %v event at step %d carries level %g outside [0, %g]",
				o.probe.label, e.Kind, e.Step, e.CapEnergy, o.probe.capacity)
		}
	}
}

// TestHarvestLevelWithinCapacity: under the dispatch suite's three
// harvested shapes, every technique on crc and randmath runs on one
// capacitor whose level stays within [0, capacity] — at every probe a
// schedule sees and in every event an observer sees.
func TestHarvestLevelWithinCapacity(t *testing.T) {
	fraction := map[string]float64{"harvest-solar": 1, "harvest-rf-undersized": 0.9, "harvest-duty-composed": 1}
	h := NewHarness()
	h.ProfileRuns = 3
	for _, name := range []string{"crc", "randmath"} {
		bm, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		m, err := bm.Module()
		if err != nil {
			t.Fatal(err)
		}
		prof, err := h.Profile(context.Background(), bm)
		if err != nil {
			t.Fatal(err)
		}
		eb := prof.EBForTBPF(10_000)
		inputs, err := bm.Inputs(1)
		if err != nil {
			t.Fatal(err)
		}
		for _, tech := range Techniques() {
			if !tech.SupportsVM(m, h.VMSize) {
				continue
			}
			clone := ir.Clone(m)
			if err := tech.Apply(clone, baselines.Params{
				Model: h.Model, Budget: eb, VMSize: h.VMSize, Profile: prof,
			}); err != nil {
				continue
			}
			for _, sc := range equivSchedules() {
				if fraction[sc.name] == 0 {
					continue
				}
				cfg := emulator.Config{Model: h.Model, VMSize: h.VMSize, Intermittent: true, EB: eb, Inputs: inputs}
				sc.apply(&cfg)
				probe := &levelProbe{t: t, label: fmt.Sprintf("%s/%s/%s", name, tech.Name(), sc.name), capacity: eb * fraction[sc.name]}
				obs := &levelObserver{probe: probe}
				cfg.Schedule = emulator.Schedules(cfg.Schedule, probe)
				cfg.Observer = obs
				res, err := emulator.Run(clone, cfg)
				if err != nil {
					t.Fatalf("%s: %v", probe.label, err)
				}
				if res.Verdict != emulator.Completed || probe.probes == 0 || obs.events == 0 {
					t.Fatalf("%s: verdict %v after %d probes and %d level events", probe.label, res.Verdict, probe.probes, obs.events)
				}
			}
		}
	}
}
