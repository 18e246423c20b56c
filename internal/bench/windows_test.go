package bench

import (
	"context"
	"reflect"
	"testing"

	"schematic/internal/baselines"
	"schematic/internal/emulator"
	"schematic/internal/harvest"
	"schematic/internal/ir"
)

// TestHookWindows is the window oracle over real placements. crc and
// randmath run under the five techniques, on the exhaustion capacitor
// and on one a solar supply feeds, three ways: unhooked, hooked on the
// batched path (hook only), and hooked on the stepped path (hook plus an
// Observer, which steps every instruction). The two hooked runs must
// report the same window sequence and the unhooked run's Result, and the
// batched one must have batched.
// Every window must hash as its captured state does, which the
// canonical PersistentState.Hash recomputes from scratch; the windows
// must account for every injection point of the run; and a window that
// does not begin at a checkpoint commit (PointAfterSave) must differ in
// hash from the one before it, since only an NVM word or a counter that
// changed closed that one.
func TestHookWindows(t *testing.T) {
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
			clone := ir.Clone(m)
			if err := tech.Apply(clone, baselines.Params{
				Model: h.Model, Budget: eb, VMSize: h.VMSize, Profile: prof,
			}); err != nil {
				t.Fatalf("%s/%s: %v", name, tech.Name(), err)
			}
			base := emulator.Config{Model: h.Model, VMSize: h.VMSize, Intermittent: true, EB: eb, Inputs: inputs}
			t.Run(name+"/"+tech.Name(), func(t *testing.T) {
				checkWindows(t, clone, base)
			})
			solar := base
			solar.Schedule = harvest.Capacitor{Env: harvest.Solar{Seed: 7, Period: 300_000}, Capacity: eb}.Schedule()
			t.Run(name+"/"+tech.Name()+"/solar", func(t *testing.T) {
				checkWindows(t, clone, solar)
			})
		}
	}
}

func checkWindows(t *testing.T, m *ir.Module, base emulator.Config) {
	plain, err := emulator.Run(m, base)
	if err != nil {
		t.Fatal(err)
	}
	hooked := func(obs emulator.Observer) ([]emulator.PointVisit, *emulator.Result, *emulator.Counts) {
		cfg := base
		cfg.Observer = obs
		cfg.Counts = &emulator.Counts{}
		var ws []emulator.PointVisit
		cfg.Hook = &emulator.Hook{Window: func(v emulator.PointVisit, capture func() *emulator.PersistentState) {
			if got := capture().Hash(); got != v.Hash {
				t.Fatalf("window %d (%v, step %d, save %d, span %d): captured state hashes %v, window %v",
					len(ws), v.Kind, v.Step, v.Saves, v.Span, got, v.Hash)
			}
			ws = append(ws, v)
		}}
		res, err := emulator.Run(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return ws, res, cfg.Counts
	}
	batched, resB, counts := hooked(nil)
	if counts.BatchedSteps() == 0 {
		t.Fatalf("the hooked run batched none of its %d instructions", counts.Steps())
	}
	obs := &countingObserver{}
	stepped, resS, _ := hooked(obs)
	if obs.n.Load() == 0 {
		t.Fatal("the observer saw no events; the stepped path did not run")
	}
	if !reflect.DeepEqual(plain, resB) || !reflect.DeepEqual(plain, resS) {
		t.Fatalf("hooked Results differ from the unhooked one:\nplain:   %+v\nbatched: %+v\nstepped: %+v", plain, resB, resS)
	}
	if plain.Verdict != emulator.Completed || plain.Steps == 0 {
		t.Fatalf("unhooked run: verdict %v after %d steps; the case exercises nothing", plain.Verdict, plain.Steps)
	}
	if len(batched) != len(stepped) {
		t.Fatalf("batched run reported %d windows, stepped %d", len(batched), len(stepped))
	}
	for i := range batched {
		if batched[i] != stepped[i] {
			t.Fatalf("window %d: batched %+v, stepped %+v", i, batched[i], stepped[i])
		}
	}
	// Every instruction boundary and save phase is one point. Without a
	// schedule a save that charged passes its mid-save point and commits,
	// and a completed run probes after every commit.
	var points int64
	for i, w := range batched {
		if w.Span < 1 {
			t.Fatalf("window %d has span %d", i, w.Span)
		}
		points += w.Span
		if i > 0 && w.Kind != emulator.PointAfterSave && w.Hash == batched[i-1].Hash {
			t.Fatalf("windows %d and %d (%v, step %d, save %d) share hash %v across an NVM or counter change",
				i-1, i, w.Kind, w.Step, w.Saves, w.Hash)
		}
	}
	if want := plain.Steps + plain.SaveAttempts + 2*int64(plain.Saves); points != want {
		t.Fatalf("windows span %d points, the run has %d (steps %d, save attempts %d, saves %d)",
			points, want, plain.Steps, plain.SaveAttempts, plain.Saves)
	}
}
