package emulator

import (
	"reflect"
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
// point, and captured states equal to their clones.
func TestHookHashMatchesCanonical(t *testing.T) {
	m := rollbackProgram(t, 40, 3)
	cfg := intermittentCfg()
	visits := 0
	cfg.Hook = func(v PointVisit, capture func() *PersistentState) {
		visits++
		if visits%25 != 1 && v.Kind == PointStep {
			return // capture is O(state); sample step points
		}
		ps := capture()
		if got := ps.Hash(); got != v.Hash {
			t.Fatalf("visit %d (%v@%d): canonical hash %v != incremental %v",
				visits, v.Kind, v.Occurrence, got, v.Hash)
		}
		if again := capture(); again.Hash() != v.Hash {
			t.Fatalf("second capture at visit %d hashes differently", visits)
		}
		if cl := ps.Clone(); cl.Hash() != v.Hash {
			t.Fatalf("clone at visit %d hashes differently", visits)
		}
	}
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
}

// TestStateHashOrderIndependence: the hash must not depend on map
// iteration or construction order of the canonical form — two runs
// reaching the same persistent state hash equal no matter how they got
// there.
func TestStateHashOrderIndependence(t *testing.T) {
	m := rollbackProgram(t, 30, 2)
	cfg := intermittentCfg()
	var captured []*PersistentState
	cfg.Hook = func(v PointVisit, capture func() *PersistentState) {
		if v.Kind == PointAfterSave {
			captured = append(captured, capture())
		}
	}
	if _, err := Run(m, cfg); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(captured) < 2 {
		t.Fatalf("captured %d states, need at least 2", len(captured))
	}
	for i, ps := range captured {
		// Rebuild the counters map in a different insertion order and
		// re-hash; clone (fresh map, fresh slices) must also agree.
		rebuilt := ps.Clone()
		rebuilt.Counters = make(map[int]int64, len(ps.Counters))
		keys := make([]int, 0, len(ps.Counters))
		for k := range ps.Counters {
			keys = append(keys, k)
		}
		for j := len(keys) - 1; j >= 0; j-- {
			rebuilt.Counters[keys[j]] = ps.Counters[keys[j]]
		}
		if rebuilt.Hash() != ps.Hash() {
			t.Fatalf("state %d: hash depends on construction order", i)
		}
	}
}

// TestStateHashSensitivity: any persistent-state difference — an NVM
// word, a counter, committed output, snapshot contents, or snapshot
// presence — must change the hash.
func TestStateHashSensitivity(t *testing.T) {
	m := rollbackProgram(t, 40, 3)
	cfg := intermittentCfg()
	var ps *PersistentState
	cfg.Hook = func(v PointVisit, capture func() *PersistentState) {
		// Keep the last save-phase state: it has a snapshot, counters,
		// and committed output context.
		if v.Kind == PointAfterSave {
			ps = capture()
		}
	}
	if _, err := Run(m, cfg); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ps == nil || ps.Snap == nil {
		t.Fatal("no snapshot-bearing state captured")
	}
	base := ps.Hash()

	mutations := []struct {
		name string
		mut  func(*PersistentState)
	}{
		{"nvm word", func(s *PersistentState) { s.NVM[0][0] ^= 1 }},
		{"new counter", func(s *PersistentState) {
			if s.Counters == nil {
				s.Counters = map[int]int64{}
			}
			s.Counters[99] = 1
		}},
		{"counter value", func(s *PersistentState) {
			if len(s.Counters) == 0 {
				t.Skip("no counters in captured state")
			}
			for k := range s.Counters {
				s.Counters[k]++
				break
			}
		}},
		{"committed output", func(s *PersistentState) { s.Out = append(s.Out, 7) }},
		{"snapshot pc", func(s *PersistentState) { s.Snap.Frames[0].PC++ }},
		{"snapshot reg", func(s *PersistentState) {
			if len(s.Snap.Frames[0].Regs) == 0 {
				t.Skip("no regs in frame")
			}
			s.Snap.Frames[0].Regs[0] ^= 1
		}},
		{"snapshot lazy flip", func(s *PersistentState) { s.Snap.Lazy = !s.Snap.Lazy }},
		{"snapshot site", func(s *PersistentState) { s.Snap.Site++ }},
		{"snapshot removed", func(s *PersistentState) { s.Snap, s.Out = nil, nil }},
	}
	for _, tc := range mutations {
		mutated := ps.Clone()
		tc.mut(mutated)
		if mutated.Hash() == base {
			t.Errorf("%s: mutation did not change the hash", tc.name)
		}
	}
	// Done is bookkeeping, not behavior: it must NOT change the hash.
	same := ps.Clone()
	same.Snap.Done++
	if same.Hash() != base {
		t.Errorf("Done changed the hash; it is excluded from state identity")
	}
}

// TestResumeContinuesDeterministically: a run resumed from a captured
// state must (1) open at exactly that state's hash and (2) be fully
// deterministic — two resumes from clones of the same state produce
// identical results, and the resumed completion produces the oracle
// output (the committed prefix is part of the state).
func TestResumeContinuesDeterministically(t *testing.T) {
	m := rollbackProgram(t, 40, 3)

	oracle, err := Run(m, baseCfg())
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}

	cfg := intermittentCfg()
	var mid *PersistentState
	saves := 0
	cfg.Hook = func(v PointVisit, capture func() *PersistentState) {
		if v.Kind == PointAfterSave {
			saves++
			if saves == 3 {
				mid = capture()
			}
		}
	}
	if _, err := Run(m, cfg); err != nil {
		t.Fatalf("hooked run: %v", err)
	}
	if mid == nil {
		t.Fatal("did not reach the third save")
	}

	resume := func() (*Result, StateHash) {
		rcfg := intermittentCfg()
		rcfg.Resume = mid.Clone()
		var first StateHash
		got := false
		rcfg.Hook = func(v PointVisit, capture func() *PersistentState) {
			if !got {
				first, got = v.Hash, true
			}
		}
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
	cfg.Hook = func(v PointVisit, capture func() *PersistentState) {
		if v.Kind == PointAfterSave {
			states = append(states, capture())
		}
	}
	if _, err := Run(m, cfg); err != nil {
		t.Fatalf("hooked run: %v", err)
	}
	if len(states) < 4 {
		t.Fatalf("captured %d states, want several mid-run ones", len(states))
	}
	for i, ps := range states {
		batched := intermittentCfg()
		batched.Resume = ps.Clone()
		stepped := intermittentCfg()
		stepped.Resume = ps.Clone()
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
// hooked run (stepped, state lanes tracked) returns the same Result as
// the unhooked run (batched) under every runtime and under an injected
// schedule.
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
			hooked.Hook = func(PointVisit, func() *PersistentState) { visits++ }
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
	if root.Snap != nil || len(root.Out) != 0 || len(root.Counters) != 0 {
		t.Fatalf("cold root is not cold: %+v", root)
	}
	var first StateHash
	got := false
	cfg.Hook = func(v PointVisit, capture func() *PersistentState) {
		if !got {
			first, got = v.Hash, true
		}
	}
	if _, err := Run(m, cfg); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !got || first != root.Hash() {
		t.Errorf("first visit hash %v, InitialState hash %v", first, root.Hash())
	}
}

// TestResumeValidation: shape mismatches and conflicting options are
// rejected up front.
func TestResumeValidation(t *testing.T) {
	m := rollbackProgram(t, 10, 2)
	cfg := intermittentCfg()
	root, err := InitialState(m, cfg)
	if err != nil {
		t.Fatalf("InitialState: %v", err)
	}

	bad := root.Clone()
	bad.NVM = bad.NVM[:1]
	cfg.Resume = bad
	if _, err := Run(m, cfg); err == nil {
		t.Error("slot-count mismatch accepted")
	}

	cfg.Resume = root.Clone()
	cfg.Inputs = map[string][]int64{"acc": {1}}
	if _, err := Run(m, cfg); err == nil {
		t.Error("Resume+Inputs accepted")
	}
	cfg.Inputs = nil

	other := rollbackProgram(t, 10, 2)
	cfg.Resume = root.Clone()
	cfg.Resume.Snap = &SnapshotState{
		Frames: []FrameState{{Fn: "nosuch", Block: "entry"}},
	}
	if _, err := Run(other, cfg); err == nil {
		t.Error("unknown resume function accepted")
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
