package emulator

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"schematic/internal/ir"
)

// rollbackProgram is loopProgram with rollback-style checkpoints: save
// and continue, recover to the last save on failure — the shape whose
// crash-recovery state graph the model checker explores.
func rollbackProgram(t testing.TB, n int, every int) *ir.Module {
	t.Helper()
	m := &ir.Module{Name: "rb"}
	acc := m.NewGlobal("acc", 1)
	idx := m.NewGlobal("i", 1)
	f := m.NewFunc("main", nil, false)

	entry := f.NewBlock("entry")
	head := f.NewBlock("head")
	body := f.NewBlock("body")
	done := f.NewBlock("done")

	b := ir.NewBuilder(f).At(entry)
	b.Emit(&ir.Checkpoint{ID: 0, Kind: ir.CkRollback})
	zero := b.Const(0)
	b.Store(acc, zero)
	b.Store(idx, zero)
	b.Jmp(head)

	b.At(head)
	i := b.Load(idx)
	lim := b.Const(int64(n))
	c := b.Bin(ir.OpLt, i, lim)
	b.Br(c, body, done)

	b.At(body)
	a := b.Load(acc)
	i2 := b.Load(idx)
	a2 := b.Bin(ir.OpAdd, a, i2)
	// The checkpoint cuts the load->store WAR dependency: every recovery
	// window begins by re-writing acc/idx from snapshot registers, so
	// re-execution is idempotent and the output stays oracle-correct no
	// matter where power fails.
	b.Emit(&ir.Checkpoint{ID: 1, Kind: ir.CkRollback, Every: every})
	b.Store(acc, a2)
	one := b.Const(1)
	i3 := b.Bin(ir.OpAdd, i2, one)
	b.Store(idx, i3)
	b.Jmp(head)

	b.At(done)
	out := b.Load(acc)
	b.Out(out)
	b.Ret()

	if err := ir.Verify(m); err != nil {
		t.Fatalf("verify: %v", err)
	}
	return m
}

// vmRollbackProgram is rollbackProgram with both variables VM-resident:
// the entry checkpoint materializes them from NVM and every checkpoint
// saves the whole VM, so each committed snapshot carries a two-slot VM
// image and a two-slot restore list.
func vmRollbackProgram(t testing.TB, n int, every int) *ir.Module {
	t.Helper()
	m := rollbackProgram(t, n, every)
	alloc := map[*ir.Var]bool{}
	for _, v := range m.Globals {
		alloc[v] = true
	}
	f := m.FuncByName("main")
	for _, blk := range f.Blocks {
		blk.Alloc = alloc
		for _, in := range blk.Instrs {
			if ck, ok := in.(*ir.Checkpoint); ok {
				ck.SaveAll = true
				if ck.ID == 0 {
					ck.Restore = m.Globals
				}
			}
		}
	}
	if err := ir.Verify(m); err != nil {
		t.Fatalf("verify: %v", err)
	}
	return m
}

// intermittentCfg is sized so the loop suffers real exhaustion failures
// between checkpoints without getting stuck.
func intermittentCfg() Config {
	cfg := baseCfg()
	cfg.Intermittent = true
	cfg.EB = 400
	return cfg
}

// TestHookHashMatchesCanonical holds the machine's incremental lane
// hash equal to the canonical PersistentState.Hash at every injection
// point, and captured states equal to their clones, with every variable
// in NVM and with both in VM (so snapshots carry a VM image), on a fresh
// run and on a run resumed from one of its mid-run commits, whose lanes
// start from the resumed state.
func TestHookHashMatchesCanonical(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(testing.TB, int, int) *ir.Module
		vm    int // VM slots the last snapshot must carry
	}{
		{"nvm", rollbackProgram, 0},
		{"vm", vmRollbackProgram, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := tc.build(t, 40, 3)
			// run checks the windows of one run, every sample-th step
			// point and every save point, and returns the states it
			// captured at commits.
			run := func(cfg Config, sample int) []*PersistentState {
				visits, vmSlots := 0, 0
				var commits []*PersistentState
				cfg.Hook = &Hook{Window: func(v PointVisit, capture func() *PersistentState) {
					visits++
					if (visits-1)%sample != 0 && v.Kind == PointStep {
						return // capture is O(state); sample step points
					}
					ps := capture()
					if got := ps.Hash(); got != v.Hash {
						t.Fatalf("visit %d (%v, step %d, save %d): canonical hash %v != incremental %v",
							visits, v.Kind, v.Step, v.Saves, got, v.Hash)
					}
					if again := capture(); again.Hash() != v.Hash {
						t.Fatalf("second capture at visit %d hashes differently", visits)
					}
					if cl := ps.clone(); cl.Hash() != v.Hash {
						t.Fatalf("clone at visit %d hashes differently", visits)
					}
					if ps.snap != nil {
						vmSlots = len(ps.snap.vmSlots)
					}
					if v.Kind == PointAfterSave {
						commits = append(commits, ps)
					}
				}}
				res, err := Run(m, cfg)
				if err != nil {
					t.Fatalf("Run: %v", err)
				}
				if res.Verdict != Completed {
					t.Fatalf("verdict = %v", res.Verdict)
				}
				if visits == 0 {
					t.Fatal("hook never fired")
				}
				if res.PowerFailures == 0 {
					t.Fatal("config produced no power failures; test exercises nothing")
				}
				if vmSlots != tc.vm {
					t.Fatalf("last captured snapshot has %d VM slots, want %d", vmSlots, tc.vm)
				}
				return commits
			}
			commits := run(intermittentCfg(), 25)
			if len(commits) < 3 {
				t.Fatalf("%d commits captured, want a mid-run one", len(commits))
			}
			resumed := intermittentCfg()
			resumed.Resume = commits[len(commits)/2]
			run(resumed, 1)
		})
	}
}

// TestSharedWordsStay: a hooked capture shares its NVM words with the
// run, which goes on writing NVM, and a hooked resume shares the words
// of the state it boots from. The machine copies a slot before its first
// write to it, so every captured state, and the state a run resumed
// from, keeps the words and hash of a deep copy taken at capture. The
// variables are in NVM, written by setNVM, and in VM, written to NVM by
// commitSlot.
func TestSharedWordsStay(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(testing.TB, int, int) *ir.Module
	}{
		{"nvm", rollbackProgram},
		{"vm", vmRollbackProgram},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := tc.build(t, 40, 3)
			type captured struct{ ps, copy *PersistentState }
			var states []captured
			run := func(cfg Config) {
				cfg.Hook = &Hook{Window: func(v PointVisit, capture func() *PersistentState) {
					ps := capture()
					states = append(states, captured{ps, ps.clone()})
				}}
				if res, err := Run(m, cfg); err != nil || res.Verdict != Completed || res.PowerFailures == 0 {
					t.Fatalf("run: %+v, %v; want a completion after failures", res, err)
				}
			}
			run(intermittentCfg())
			from := states[len(states)/2]
			resumed := intermittentCfg()
			resumed.Resume = from.ps
			run(resumed)
			for i, c := range states {
				if c.ps.Hash() != c.copy.Hash() || !reflect.DeepEqual(c.ps.nvm, c.copy.nvm) {
					t.Fatalf("state %d of %d: the run wrote the words it shares with a capture", i, len(states))
				}
			}
		})
	}
}

// TestParallelResumesShareWords: hooked runs resumed from one state in
// parallel share its NVM words and write none of them (run it under
// -race), so they return one Result and leave the state's hash as it
// was at capture.
func TestParallelResumesShareWords(t *testing.T) {
	for _, build := range []func(testing.TB, int, int) *ir.Module{rollbackProgram, vmRollbackProgram} {
		m := build(t, 40, 3)
		var mid *PersistentState
		var before StateHash
		saves := 0
		cfg := intermittentCfg()
		cfg.Hook = &Hook{Window: func(v PointVisit, capture func() *PersistentState) {
			if v.Kind == PointAfterSave {
				if saves++; saves == 3 {
					mid = capture()
					before = mid.clone().Hash()
				}
			}
		}}
		if _, err := Run(m, cfg); err != nil || mid == nil {
			t.Fatalf("no third commit captured: %v", err)
		}
		var wg sync.WaitGroup
		res := make([]*Result, 2)
		errs := make([]error, 2)
		for i := range res {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rcfg := intermittentCfg()
				rcfg.Resume = mid
				rcfg.Hook = &Hook{Window: func(_ PointVisit, capture func() *PersistentState) { capture() }}
				res[i], errs[i] = Run(m, rcfg)
			}()
		}
		wg.Wait()
		if errs[0] != nil || errs[1] != nil {
			t.Fatalf("resumes: %v, %v", errs[0], errs[1])
		}
		if res[0].PowerFailures == 0 || !reflect.DeepEqual(res[0], res[1]) {
			t.Fatalf("parallel resumes:\n%+v\n%+v\nwant one Result with failures", res[0], res[1])
		}
		if mid.Hash() != before {
			t.Fatal("the resumes changed the state they booted from")
		}
	}
}

// TestStateHashOrderIndependence: the hash must not depend on map
// iteration or construction order of the canonical form — two runs
// reaching the same persistent state hash equal no matter how they got
// there.
func TestStateHashOrderIndependence(t *testing.T) {
	m := rollbackProgram(t, 30, 2)
	cfg := intermittentCfg()
	var captured []*PersistentState
	cfg.Hook = &Hook{Window: func(v PointVisit, capture func() *PersistentState) {
		if v.Kind == PointAfterSave {
			captured = append(captured, capture())
		}
	}}
	if _, err := Run(m, cfg); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(captured) < 2 {
		t.Fatalf("captured %d states, need at least 2", len(captured))
	}
	for i, ps := range captured {
		// Rebuild the counters map in a different insertion order and
		// re-hash; clone (fresh map, fresh slices) must also agree.
		rebuilt := ps.clone()
		rebuilt.counters = make(map[int]int64, len(ps.counters))
		keys := make([]int, 0, len(ps.counters))
		for k := range ps.counters {
			keys = append(keys, k)
		}
		for j := len(keys) - 1; j >= 0; j-- {
			rebuilt.counters[keys[j]] = ps.counters[keys[j]]
		}
		if rebuilt.Hash() != ps.Hash() {
			t.Fatalf("state %d: hash depends on construction order", i)
		}
	}
}

// TestStateHashSensitivity: any persistent-state difference — an NVM
// word, a counter, committed output, snapshot contents (a frame's block,
// the VM image and the order of its slots and of the restore list
// included), or snapshot presence — must change the hash.
func TestStateHashSensitivity(t *testing.T) {
	m := vmRollbackProgram(t, 40, 3)
	cfg := intermittentCfg()
	var ps *PersistentState
	cfg.Hook = &Hook{Window: func(v PointVisit, capture func() *PersistentState) {
		// Keep the last save-phase state: it has a snapshot, counters,
		// and committed output context.
		if v.Kind == PointAfterSave {
			ps = capture()
		}
	}}
	if _, err := Run(m, cfg); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ps == nil || ps.snap == nil {
		t.Fatal("no snapshot-bearing state captured")
	}
	if len(ps.snap.vmSlots) < 2 || len(ps.snap.restores) < 2 {
		t.Fatalf("captured snapshot has %d VM slots and %d restores, want at least 2 each",
			len(ps.snap.vmSlots), len(ps.snap.restores))
	}
	base := ps.Hash()

	mutations := []struct {
		name string
		mut  func(*PersistentState)
	}{
		{"nvm word", func(s *PersistentState) { s.nvm[0][0] ^= 1 }},
		{"new counter", func(s *PersistentState) {
			if s.counters == nil {
				s.counters = map[int]int64{}
			}
			s.counters[99] = 1
		}},
		{"counter value", func(s *PersistentState) {
			if len(s.counters) == 0 {
				t.Skip("no counters in captured state")
			}
			for k := range s.counters {
				s.counters[k]++
				break
			}
		}},
		{"committed output", func(s *PersistentState) { s.out = append(s.out, 7) }},
		{"snapshot pc", func(s *PersistentState) { s.snap.frames[0].pc++ }},
		{"snapshot block", func(s *PersistentState) {
			// Another block of the same function, at the same pc.
			f := &s.snap.frames[0]
			for _, b := range f.fn.Blocks {
				if cb := s.bound.prog.BlockOf(b); cb != f.cb {
					f.cb = cb
					return
				}
			}
		}},
		{"snapshot reg", func(s *PersistentState) {
			if len(s.snap.frames[0].regs) == 0 {
				t.Skip("no regs in frame")
			}
			s.snap.frames[0].regs[0] ^= 1
		}},
		{"snapshot lazy flip", func(s *PersistentState) { s.snap.lazy = !s.snap.lazy }},
		{"vm word", func(s *PersistentState) { s.snap.vmData[0][0] ^= 1 }},
		{"vm slot order", func(s *PersistentState) {
			s.snap.vmSlots[0], s.snap.vmSlots[1] = s.snap.vmSlots[1], s.snap.vmSlots[0]
			s.snap.vmData[0], s.snap.vmData[1] = s.snap.vmData[1], s.snap.vmData[0]
		}},
		{"restore order", func(s *PersistentState) {
			s.snap.restores[0], s.snap.restores[1] = s.snap.restores[1], s.snap.restores[0]
		}},
		{"snapshot site", func(s *PersistentState) { s.snap.site++ }},
		{"snapshot removed", func(s *PersistentState) { s.snap, s.out = nil, nil }},
	}
	for _, tc := range mutations {
		mutated := ps.clone()
		tc.mut(mutated)
		if mutated.Hash() == base {
			t.Errorf("%s: mutation did not change the hash", tc.name)
		}
	}
	// Done is bookkeeping, not behavior: it must NOT change the hash.
	same := ps.clone()
	same.snap.done++
	if same.Hash() != base {
		t.Errorf("Done changed the hash; it is excluded from state identity")
	}
}

// TestResumeContinuesDeterministically: a run resumed from a captured
// state must (1) open at exactly that state's hash and (2) be fully
// deterministic — two resumes from the same state produce identical
// results, and the resumed completion produces the oracle output (the
// committed prefix is part of the state).
func TestResumeContinuesDeterministically(t *testing.T) {
	m := rollbackProgram(t, 40, 3)

	oracle, err := Run(m, baseCfg())
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}

	cfg := intermittentCfg()
	var mid *PersistentState
	saves := 0
	cfg.Hook = &Hook{Window: func(v PointVisit, capture func() *PersistentState) {
		if v.Kind == PointAfterSave {
			saves++
			if saves == 3 {
				mid = capture()
			}
		}
	}}
	if _, err := Run(m, cfg); err != nil {
		t.Fatalf("hooked run: %v", err)
	}
	if mid == nil {
		t.Fatal("did not reach the third save")
	}

	resume := func() (*Result, StateHash) {
		rcfg := intermittentCfg()
		rcfg.Resume = mid
		var first StateHash
		got := false
		rcfg.Hook = &Hook{Window: func(v PointVisit, capture func() *PersistentState) {
			if !got {
				first, got = v.Hash, true
			}
		}}
		res, err := Run(m, rcfg)
		if err != nil {
			t.Fatalf("resume: %v", err)
		}
		return res, first
	}

	r1, h1 := resume()
	r2, h2 := resume()
	if h1 != mid.Hash() {
		t.Errorf("resumed run opened at hash %v, want the captured state's %v", h1, mid.Hash())
	}
	if h1 != h2 {
		t.Errorf("two resumes opened at different hashes")
	}
	if r1.Verdict != r2.Verdict || r1.Steps != r2.Steps || r1.PowerFailures != r2.PowerFailures ||
		r1.Energy != r2.Energy || !equalInt64s(r1.Output, r2.Output) {
		t.Errorf("resumed runs diverged:\n  %+v\n  %+v", r1, r2)
	}
	if r1.Verdict != Completed {
		t.Fatalf("resumed run verdict = %v", r1.Verdict)
	}
	if !equalInt64s(r1.Output, oracle.Output) {
		t.Errorf("resumed completion output %v, oracle %v", r1.Output, oracle.Output)
	}
}

// TestResumeBatchedMatchesStepped: a resumed run with no Hook takes the
// batched path; the same resume with a no-op Observer steps every
// instruction. Both must return the same Result, from the cold root and
// from mid-run captures at every committed save.
func TestResumeBatchedMatchesStepped(t *testing.T) {
	m := rollbackProgram(t, 40, 3)
	root, err := InitialState(m, intermittentCfg())
	if err != nil {
		t.Fatalf("InitialState: %v", err)
	}
	states := []*PersistentState{root}
	cfg := intermittentCfg()
	cfg.Hook = &Hook{Window: func(v PointVisit, capture func() *PersistentState) {
		if v.Kind == PointAfterSave {
			states = append(states, capture())
		}
	}}
	if _, err := Run(m, cfg); err != nil {
		t.Fatalf("hooked run: %v", err)
	}
	if len(states) < 4 {
		t.Fatalf("captured %d states, want several mid-run ones", len(states))
	}
	for i, ps := range states {
		batched := intermittentCfg()
		batched.Resume = ps
		stepped := intermittentCfg()
		stepped.Resume = ps
		events := 0
		stepped.Observer = observerFunc(func(Event) { events++ })
		rb, err := Run(m, batched)
		if err != nil {
			t.Fatalf("state %d: batched resume: %v", i, err)
		}
		rs, err := Run(m, stepped)
		if err != nil {
			t.Fatalf("state %d: stepped resume: %v", i, err)
		}
		if events == 0 {
			t.Fatalf("state %d: observer saw no events", i)
		}
		if !reflect.DeepEqual(rb, rs) {
			t.Errorf("state %d: resumed runs diverge:\nbatched: %+v\nstepped: %+v", i, rb, rs)
		}
	}
}

// TestHookDoesNotChangeRun: a hook observes; it must not perturb. A
// hooked run (state lanes tracked, windows counted) returns the same
// Result as the unhooked run under every runtime, batched, and under an
// injected schedule, stepped.
func TestHookDoesNotChangeRun(t *testing.T) {
	cases := []struct {
		name  string
		build func(testing.TB) *ir.Module
		cfg   func() Config
	}{
		{"rollback", func(tb testing.TB) *ir.Module { return rollbackProgram(tb, 40, 3) }, intermittentCfg},
		{"wait", func(tb testing.TB) *ir.Module { return loopProgram(tb, 100, 1, true) }, intermittentCfg},
		{"regs-only", func(tb testing.TB) *ir.Module { return ratchetLoopProgram(tb, 200) }, func() Config {
			cfg := intermittentCfg()
			cfg.EB = 1500
			return cfg
		}},
		{"torn-save", func(tb testing.TB) *ir.Module { return rollbackProgram(tb, 40, 3) }, func() Config {
			cfg := intermittentCfg()
			cfg.Schedule = Schedules(Exhaustion(), TraceSchedule(
				FailPoint{Kind: PointMidSave, N: 2}, FailPoint{Kind: PointStep, N: 300}))
			return cfg
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := tc.build(t)
			plain, err := Run(m, tc.cfg())
			if err != nil {
				t.Fatalf("unhooked: %v", err)
			}
			hooked := tc.cfg()
			visits := 0
			hooked.Hook = &Hook{Window: func(PointVisit, func() *PersistentState) { visits++ }}
			res, err := Run(m, hooked)
			if err != nil {
				t.Fatalf("hooked: %v", err)
			}
			if visits == 0 {
				t.Fatal("hook never fired")
			}
			if plain.PowerFailures+plain.Sleeps == 0 {
				t.Fatal("config produced no failures or sleeps; test exercises nothing")
			}
			if !reflect.DeepEqual(plain, res) {
				t.Errorf("hook changed the run:\nunhooked: %+v\nhooked:   %+v", plain, res)
			}
		})
	}
}

// TestInitialState: the cold root captures initial NVM (with input
// overrides) and no snapshot, and matches the first hook visit of a
// fresh run.
func TestInitialState(t *testing.T) {
	m := rollbackProgram(t, 10, 2)
	cfg := intermittentCfg()
	root, err := InitialState(m, cfg)
	if err != nil {
		t.Fatalf("InitialState: %v", err)
	}
	if root.snap != nil || len(root.out) != 0 || len(root.counters) != 0 {
		t.Fatalf("cold root is not cold: %+v", root)
	}
	var first StateHash
	got := false
	cfg.Hook = &Hook{Window: func(v PointVisit, capture func() *PersistentState) {
		if !got {
			first, got = v.Hash, true
		}
	}}
	if _, err := Run(m, cfg); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !got || first != root.Hash() {
		t.Errorf("first visit hash %v, InitialState hash %v", first, root.Hash())
	}
}

// TestResumeValidation: Run takes a resume state only as the emulator
// made it, for the module it was captured from, unedited since, and
// never with Inputs or PrewarmVM. Each refusal is a ConfigError for
// Resume.
func TestResumeValidation(t *testing.T) {
	m := rollbackProgram(t, 10, 2)
	cfg := intermittentCfg()
	var mid *PersistentState
	cfg.Hook = &Hook{Window: func(v PointVisit, capture func() *PersistentState) {
		if v.Kind == PointAfterSave && mid == nil {
			mid = capture()
		}
	}}
	if _, err := Run(m, cfg); err != nil {
		t.Fatal(err)
	}
	if mid == nil || mid.snap == nil {
		t.Fatal("no snapshot-bearing state captured")
	}
	refused := func(what string, mod *ir.Module, c Config) {
		t.Helper()
		_, err := Run(mod, c)
		var ce *ConfigError
		if !errors.As(err, &ce) || ce.Field != "Resume" || !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("%s: got %v, want a ConfigError for Resume", what, err)
		}
	}
	c := intermittentCfg()
	c.Resume = &PersistentState{}
	refused("zero state", m, c)
	c.Resume = mid
	refused("another module", rollbackProgram(t, 10, 2), c)
	c.Inputs = map[string][]int64{"acc": {1}}
	refused("Resume+Inputs", m, c)
	c.Inputs, c.PrewarmVM = nil, true
	refused("Resume+PrewarmVM", m, c)
	c.PrewarmVM = false
	if _, err := Run(m, c); err != nil {
		t.Fatalf("resume on the capturing module: %v", err)
	}
	for _, in := range m.FuncByName("main").Blocks[1].Instrs {
		if k, ok := in.(*ir.Const); ok {
			k.Val++
		}
	}
	refused("edited module", m, c)
}

// TestResumeBootsOnce: a run resumed from a commit boots at the recovery
// point, as the continuation of the failed run would. It neither counts
// nor enters main's entry block, which only the failed run executed: a
// resumed run that suffers no power failure counts no call of main, and
// its first block entry replays the restored stack. The resume also
// moves each frame to the running program's block: resumed under a
// model with other costs, a state captured under the default model runs
// as the same state captured under that model does.
func TestResumeBootsOnce(t *testing.T) {
	m := rollbackProgram(t, 40, 3)
	// thirdCommit captures the state at the third commit of a run on
	// continuous power, whose persistent state no energy cost decides.
	thirdCommit := func(cfg Config) *PersistentState {
		var mid *PersistentState
		saves := 0
		cfg.Hook = &Hook{Window: func(v PointVisit, capture func() *PersistentState) {
			if v.Kind == PointAfterSave {
				if saves++; saves == 3 {
					mid = capture()
				}
			}
		}}
		if _, err := Run(m, cfg); err != nil {
			t.Fatal(err)
		}
		if mid == nil {
			t.Fatal("did not reach the third save")
		}
		return mid
	}
	costly := baseCfg()
	costly.Model.EnergyPerCycle *= 2
	twin, err := Run(m, Config{Model: costly.Model, VMSize: costly.VMSize, Resume: thirdCommit(costly)})
	if err != nil {
		t.Fatal(err)
	}
	mid := thirdCommit(baseCfg())
	mainF := m.FuncByName("main")
	for _, observed := range []bool{false, true} {
		rcfg := costly
		rcfg.Resume = mid
		rcfg.Counts = &Counts{}
		var enters []Event
		if observed {
			rcfg.Observer = observerFunc(func(e Event) {
				if e.Kind == EvBlockEnter {
					enters = append(enters, e)
				}
			})
		}
		res, err := Run(m, rcfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Verdict != Completed || res.PowerFailures != 0 {
			t.Fatalf("observed %v: verdict %v after %d failures, want a completion with none",
				observed, res.Verdict, res.PowerFailures)
		}
		if !reflect.DeepEqual(res, twin) {
			t.Errorf("observed %v: resumed under the costly model:\n got %+v\nwant %+v (captured under it)",
				observed, res, twin)
		}
		if n := rcfg.Counts.Calls(mainF); n != 0 {
			t.Errorf("observed %v: %d calls of main counted, want 0", observed, n)
		}
		if !observed {
			continue
		}
		if len(enters) == 0 {
			t.Fatal("the observer saw no block entry")
		}
		if e := enters[0]; !e.Resume {
			t.Errorf("first block entry is %s.%s at step %d, not the replay of the restored stack",
				e.Fn.Name, e.Block.Name, e.Step)
		}
		for _, e := range enters {
			if e.Block == mainF.Blocks[0] {
				t.Errorf("entered main's entry block at step %d (resume %v)", e.Step, e.Resume)
			}
		}
	}
}

func equalInt64s(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// offerRun is what commitOffers saw of one run: the Result, the offers,
// the committed save each offer was made at (its ordinal among the
// run's EvSave events, from 1), and the saves the contract names with
// what made each joinable: the first after boot or resume, after each
// power failure and after each sleep refill.
type offerRun struct {
	res    *Result
	offers []CommitVisit
	at     []int
	want   []int
	why    []EventKind // EvBlockEnter for the boot, else EvPowerFailure or EvSleepEnd
}

// commitOffers runs m under cfg with an observer, so the run steps, and
// a hook that never stops it.
func commitOffers(t *testing.T, m *ir.Module, cfg Config) offerRun {
	t.Helper()
	var r offerRun
	saves, since := 0, EvBlockEnter
	joinable := true
	cfg.Observer = observerFunc(func(e Event) {
		switch e.Kind {
		case EvSave:
			saves++
			if joinable {
				r.want, r.why, joinable = append(r.want, saves), append(r.why, since), false
			}
		case EvPowerFailure, EvSleepEnd:
			joinable, since = true, e.Kind
		}
	})
	cfg.Hook = &Hook{
		Window: func(PointVisit, func() *PersistentState) {},
		Commit: func(c CommitVisit) bool {
			r.offers, r.at = append(r.offers, c), append(r.at, saves)
			return false
		},
	}
	res, err := Run(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.res = res
	if !reflect.DeepEqual(r.at, r.want) {
		t.Fatalf("offers at saves %v; want the first after boot, each failure and each sleep refill: %v (%v)",
			r.at, r.want, r.why)
	}
	return r
}

// TestCommitOffers: an exhaustion run offers Hook.Commit a full-state
// key only at the commits where runs join: the first after the run
// boots or resumes, after each power failure and after each sleep
// refill. A failing rollback run offers at its first commit and after
// each failure, fewer offers than commits; a run of a wait placement
// also after each sleep refill; a resumed run at its first commit. The
// batched run offers the same keys as the stepped one, and a Commit that
// never stops it leaves the Result alone. Stopping at an offer ends the
// run there with verdict Stopped, the offer's counts and no window after
// it. A run with a schedule member besides the capacitor, or with a
// supply, offers nothing.
func TestCommitOffers(t *testing.T) {
	m := vmRollbackProgram(t, 40, 3)
	plain, err := Run(m, intermittentCfg())
	if err != nil {
		t.Fatal(err)
	}
	stepped := commitOffers(t, m, intermittentCfg())
	if plain.PowerFailures == 0 || plain.Sleeps != 0 || len(stepped.offers) != plain.PowerFailures+1 ||
		len(stepped.offers) >= plain.Saves {
		t.Fatalf("%d offers over %d saves, %d failures and %d sleeps; want one after boot and one after each failure",
			len(stepped.offers), plain.Saves, plain.PowerFailures, plain.Sleeps)
	}

	var offers []CommitVisit
	var points int64
	var pointsAt []int64
	var mid *PersistentState
	cfg := intermittentCfg()
	cfg.Hook = &Hook{
		Window: func(v PointVisit, capture func() *PersistentState) {
			points += v.Span
			if v.Kind == PointAfterSave && mid == nil && points > 100 {
				mid = capture()
			}
		},
		Commit: func(c CommitVisit) bool {
			offers, pointsAt = append(offers, c), append(pointsAt, points)
			return false
		},
	}
	res, err := Run(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, res) {
		t.Fatalf("offering keys changed the run:\nunhooked: %+v\nhooked:   %+v", plain, res)
	}
	if !reflect.DeepEqual(offers, stepped.offers) {
		t.Fatalf("the batched run offered %+v, the stepped run %+v", offers, stepped.offers)
	}

	wait := commitOffers(t, loopProgram(t, 100, 1, true), intermittentCfg())
	if !slices.Contains(wait.why, EvSleepEnd) {
		t.Fatalf("wait placement: offers after %v over %d sleeps; want one after a sleep refill", wait.why, wait.res.Sleeps)
	}

	if mid == nil {
		t.Fatal("no mid-run commit captured")
	}
	resumed := intermittentCfg()
	resumed.Resume = mid
	if r := commitOffers(t, m, resumed); len(r.at) == 0 || r.at[0] != 1 {
		t.Fatalf("resumed run offered at saves %v; want its first", r.at)
	}

	k := len(offers) / 2
	n := 0
	var stoppedPoints int64
	cfg.Hook = &Hook{
		Window: func(v PointVisit, _ func() *PersistentState) { stoppedPoints += v.Span },
		Commit: func(c CommitVisit) bool {
			if c != offers[n] {
				t.Fatalf("offer %d: %+v, first run %+v", n, c, offers[n])
			}
			n++
			return n == k+1
		},
	}
	stopped, err := Run(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stopped.Verdict != Stopped || stopped.Steps != offers[k].Steps ||
		stopped.PowerFailures != offers[k].PowerFailures || stoppedPoints != pointsAt[k] {
		t.Fatalf("stopped at offer %d (%+v, %d points before it): verdict %v, %d steps, %d failures, %d points",
			k, offers[k], pointsAt[k], stopped.Verdict, stopped.Steps, stopped.PowerFailures, stoppedPoints)
	}

	for name, sched := range map[string]PowerSchedule{
		"trace":  Schedules(Exhaustion(), TraceSchedule(FailPoint{Kind: PointStep, N: 300})),
		"supply": Capacitor{Supply: squareSupply{peak: 0.01, on: 64, period: 128}},
	} {
		cfg := intermittentCfg()
		cfg.Schedule = sched
		offered := 0
		cfg.Hook = &Hook{
			Window: func(PointVisit, func() *PersistentState) {},
			Commit: func(CommitVisit) bool { offered++; return true },
		}
		if res, err := Run(m, cfg); err != nil || res.Verdict == Stopped || offered != 0 {
			t.Errorf("%s: %d offers, verdict %v, err %v; want none", name, offered, res.Verdict, err)
		}
	}
}

// TestCommitKeysMeet: runs resumed from different failure points reach
// later commits with one full-state key, and from an equal key they run
// the same rest: the same steps, failures, verdict and output. This is
// the premise on which the model checker ends a run at a known key.
func TestCommitKeysMeet(t *testing.T) {
	m := vmRollbackProgram(t, 40, 3)
	var states []*PersistentState
	cfg := intermittentCfg()
	cfg.Hook = &Hook{Window: func(v PointVisit, capture func() *PersistentState) {
		if v.Kind == PointStep {
			states = append(states, capture())
		}
	}}
	if _, err := Run(m, cfg); err != nil {
		t.Fatal(err)
	}
	type rest struct {
		steps    int64
		failures int
		verdict  Verdict
		out      string
	}
	seen := map[StateHash]rest{}
	met := 0
	for i, ps := range states {
		var offers []CommitVisit
		rcfg := intermittentCfg()
		rcfg.Resume = ps
		rcfg.Hook = &Hook{
			Window: func(PointVisit, func() *PersistentState) {},
			Commit: func(c CommitVisit) bool { offers = append(offers, c); return false },
		}
		res, err := Run(m, rcfg)
		if err != nil {
			t.Fatalf("resume %d: %v", i, err)
		}
		for _, c := range offers {
			r := rest{res.Steps - c.Steps, res.PowerFailures - c.PowerFailures, res.Verdict, fmt.Sprint(res.Output)}
			if prev, ok := seen[c.Key]; !ok {
				seen[c.Key] = r
			} else if met++; prev != r {
				t.Fatalf("resume %d: key %v runs %+v, an earlier run %+v", i, c.Key, r, prev)
			}
		}
	}
	if met == 0 {
		t.Fatalf("%d resumes never met at a key", len(states))
	}
}

// TestFullKeySensitivity: two full states that differ only in one
// volatile field the rest of an exhaustion run reads get different
// keys: a resident slot's pending or dirty mark, or one of the four
// forward-progress watchdog fields. No sweep case has two commits that
// differ only there, so each is changed here on a machine stopped at a
// commit.
func TestFullKeySensitivity(t *testing.T) {
	m := vmRollbackProgram(t, 40, 3)
	atCommit := func() *machine {
		t.Helper()
		cfg := intermittentCfg()
		cfg.MaxSteps, cfg.MaxFailures = 1_000_000, 10_000
		offers := 0
		cfg.Hook = &Hook{
			Window: func(PointVisit, func() *PersistentState) {},
			Commit: func(CommitVisit) bool { offers++; return offers == 3 },
		}
		mc, err := newMachine(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res, err := mc.run(); err != nil || res.Verdict != Stopped {
			t.Fatalf("run to the third commit: verdict %v, err %v", res.Verdict, err)
		}
		return mc
	}
	base := atCommit().fullKey()
	if again := atCommit().fullKey(); again != base {
		t.Fatalf("one commit, two keys: %v and %v", base, again)
	}
	resident := func(mc *machine) int {
		for slot, arr := range mc.vm {
			if arr != nil {
				return slot
			}
		}
		t.Fatal("no slot resident at the commit")
		return 0
	}
	for _, tc := range []struct {
		name string
		mut  func(mc *machine)
	}{
		{"pending mark", func(mc *machine) { s := resident(mc); mc.pending[s] = !mc.pending[s] }},
		{"dirty mark", func(mc *machine) { s := resident(mc); mc.dirty[s] = !mc.dirty[s] }},
		{"stagnation", func(mc *machine) { mc.stagnation++ }},
		{"lastFailFurthest", func(mc *machine) { mc.lastFailFurthest++ }},
		{"maxSnapDone", func(mc *machine) { mc.maxSnapDone++ }},
		{"snapStagnation", func(mc *machine) { mc.snapStagnation++ }},
	} {
		mc := atCommit()
		tc.mut(mc)
		if mc.fullKey() == base {
			t.Errorf("%s: the key did not change", tc.name)
		}
	}
}
