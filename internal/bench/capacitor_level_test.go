package bench

import (
	"context"
	"fmt"
	"testing"

	"schematic/internal/baselines"
	"schematic/internal/emulator"
	"schematic/internal/ir"
)

// levelObserver checks the capacitor level every level-carrying event
// reports against [0, capacity]. It reads per-instruction events, so the
// run steps and it sees the level at every draw.
type levelObserver struct {
	t        *testing.T
	label    string
	capacity float64
	events   int
}

func (o *levelObserver) Event(e emulator.Event) {
	switch e.Kind {
	case emulator.EvCharge, emulator.EvPowerFailure, emulator.EvSleepStart, emulator.EvSleepEnd, emulator.EvInjection:
		o.events++
		if e.CapEnergy < 0 || e.CapEnergy > o.capacity {
			o.t.Fatalf("%s: %v event at step %d carries level %g outside [0, %g]",
				o.label, e.Kind, e.Step, e.CapEnergy, o.capacity)
		}
	}
}

// TestHarvestLevelWithinCapacity: under the dispatch suite's three
// harvested shapes, every technique on crc and randmath runs on one
// capacitor whose level stays within [0, capacity] in every event an
// observer sees: at every draw, failure, sleep and injection.
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
				obs := &levelObserver{t: t, label: fmt.Sprintf("%s/%s/%s", name, tech.Name(), sc.name), capacity: eb * fraction[sc.name]}
				cfg.Observer = obs
				res, err := emulator.Run(clone, cfg)
				if err != nil {
					t.Fatalf("%s: %v", obs.label, err)
				}
				if res.Verdict != emulator.Completed || obs.events == 0 {
					t.Fatalf("%s: verdict %v after %d level events", obs.label, res.Verdict, obs.events)
				}
			}
		}
	}
}
