package emulator

import (
	"errors"
	"math"
	"testing"
	"unsafe"

	"schematic/internal/ir"
)

// chargeSummer accumulates EvCharge energy per class and counts the
// operation events, for checking the stream against the Result counters.
type chargeSummer struct {
	byClass  map[ChargeClass]float64
	saves    int
	restores int
	failures int
	sleeps   int
}

func newChargeSummer() *chargeSummer {
	return &chargeSummer{byClass: map[ChargeClass]float64{}}
}

func (cs *chargeSummer) Event(e Event) {
	switch e.Kind {
	case EvCharge:
		cs.byClass[e.Class] += e.Energy
	case EvSave:
		cs.saves++
	case EvRestore:
		cs.restores++
	case EvPowerFailure:
		cs.failures++
	case EvSleepStart:
		cs.sleeps++
	}
}

// TestChargeEventsSumToLedger pins the core observer guarantee: every
// draw from the capacitor emits exactly one EvCharge, so the per-class
// sums rebuild the energy ledger bit-for-bit (same summation order).
func TestChargeEventsSumToLedger(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, cfg Config) (*Result, error)
		eb   float64
	}{
		{"wait", func(t *testing.T, cfg Config) (*Result, error) {
			return Run(loopProgram(t, 100, 1, true), cfg)
		}, 400},
		{"rollback", func(t *testing.T, cfg Config) (*Result, error) {
			return Run(ratchetLoopProgram(t, 200), cfg)
		}, 1500},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cs := newChargeSummer()
			cfg := baseCfg()
			cfg.Intermittent = true
			cfg.EB = tc.eb
			cfg.Observer = cs
			res, err := tc.run(t, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Verdict != Completed {
				t.Fatalf("verdict = %v", res.Verdict)
			}
			l := res.Energy
			checks := []struct {
				name      string
				got, want float64
			}{
				{"computation", cs.byClass[ChargeCompute] + cs.byClass[ChargeVMAccess] + cs.byClass[ChargeNVMAccess], l.Computation},
				{"save", cs.byClass[ChargeSave], l.Save},
				{"restore", cs.byClass[ChargeRestore], l.Restore},
				{"re-execution", cs.byClass[ChargeReexec], l.Reexecution},
			}
			for _, c := range checks {
				if math.Abs(c.got-c.want) > 1e-9 {
					t.Errorf("%s: events sum to %.9f nJ, ledger has %.9f nJ", c.name, c.got, c.want)
				}
			}
			if cs.saves != res.Saves {
				t.Errorf("save events = %d, Result.Saves = %d", cs.saves, res.Saves)
			}
			if cs.restores != res.Restores {
				t.Errorf("restore events = %d, Result.Restores = %d", cs.restores, res.Restores)
			}
			if cs.failures != res.PowerFailures {
				t.Errorf("failure events = %d, Result.PowerFailures = %d", cs.failures, res.PowerFailures)
			}
			if cs.sleeps != res.Sleeps {
				t.Errorf("sleep events = %d, Result.Sleeps = %d", cs.sleeps, res.Sleeps)
			}
		})
	}
}

// TestRestoresCounter checks the new Result.Restores counter: zero for
// a checkpoint-free continuous run, and on an intermittent wait-style
// run every sleep wake-up restores, so the counter at least matches the
// sleep count.
func TestRestoresCounter(t *testing.T) {
	m := loopProgram(t, 10, -1, false)
	entry := m.FuncByName("main").Entry()
	entry.Instrs = entry.Instrs[1:] // drop the boot checkpoint
	res, err := Run(m, baseCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.Restores != 0 {
		t.Errorf("continuous run restores = %d, want 0", res.Restores)
	}

	cfg := baseCfg()
	cfg.Intermittent = true
	cfg.EB = 400
	res, err = Run(loopProgram(t, 100, 1, true), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Completed {
		t.Fatalf("verdict = %v", res.Verdict)
	}
	if res.Restores == 0 || res.Restores < res.Sleeps {
		t.Errorf("restores = %d, want >= sleeps (%d)", res.Restores, res.Sleeps)
	}
}

type observerFunc func(Event)

func (f observerFunc) Event(e Event) { f(e) }

func TestMultiObserverNilPath(t *testing.T) {
	if MultiObserver() != nil {
		t.Error("MultiObserver() != nil")
	}
	if MultiObserver(nil, nil) != nil {
		t.Error("MultiObserver(nil, nil) != nil")
	}
	single := observerFunc(func(Event) {})
	if got := MultiObserver(nil, single); got == nil {
		t.Error("single observer lost")
	}
}

// TestNilObserverNoPerInstructionAllocs guards the fast path: with no
// observer configured, growing the instruction count must not grow the
// allocation count — events are never constructed. A small constant
// difference (map growth inside the machine) is tolerated; a per-
// instruction allocation would show up as thousands.
func TestNilObserverNoPerInstructionAllocs(t *testing.T) {
	small := loopProgram(t, 100, -1, false)
	large := loopProgram(t, 5000, -1, false)
	run := func(m *ir.Module) func() {
		return func() {
			if _, err := Run(m, baseCfg()); err != nil {
				t.Fatal(err)
			}
		}
	}
	allocsSmall := testing.AllocsPerRun(5, run(small))
	allocsLarge := testing.AllocsPerRun(5, run(large))
	if allocsLarge > allocsSmall+32 {
		t.Errorf("allocations grow with run length: %d instructions → %.0f allocs, %d instructions → %.0f allocs",
			100, allocsSmall, 5000, allocsLarge)
	}
}

// TestMachineSizeClass: every run allocates one machine, so it must stay
// within Go's 1024-byte allocation size class, where the next is 1152.
// The allocator puts an 8-byte header before an object over 512 bytes
// that holds pointers, so that leaves the machine 1016. What only a
// hooked run keeps sits behind a pointer (hooked) for this.
func TestMachineSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(machine{}); n > 1016 {
		t.Errorf("machine is %d bytes; with its allocation header that is past the 1024-byte size class", n)
	}
}

// BenchmarkEmulateNoObserver measures the unobserved emulation loop.
// The allocation report must stay flat as the loop bound grows (see
// TestNilObserverNoPerInstructionAllocs): the nil-observer fast path
// skips event construction entirely, so per-instruction cost is pure
// interpretation with zero allocations.
func BenchmarkEmulateNoObserver(b *testing.B) {
	m := loopProgram(b, 1000, -1, false)
	cfg := baseCfg()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(m, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEmulateHarvested is the same loop on a capacitor that a
// supply feeds. It batches like an unsupplied run, and each straight-line
// run's draws are redone with harvest-in once the run ends.
func BenchmarkEmulateHarvested(b *testing.B) {
	m := loopProgram(b, 1000, -1, false)
	cfg := baseCfg()
	cfg.Intermittent, cfg.EB = true, 1e6
	cfg.Schedule = Capacitor{Supply: sineSupply{peak: 0.5, period: 10_000}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(m, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEmulateObserved is the same loop with a minimal observer, to
// expose the observation overhead in benchmark comparisons.
func BenchmarkEmulateObserved(b *testing.B) {
	m := loopProgram(b, 1000, -1, false)
	cfg := baseCfg()
	var n int64
	cfg.Observer = observerFunc(func(Event) { n++ })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(m, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// attributor is an Attributor: an observer of everything but
// per-instruction events, filling attr (nil: no energy wanted). It
// counts the per-instruction events it is sent all the same, which only
// a fan-out that does not opt out as a whole sends it.
type attributor struct {
	attr     *Attribution
	perInstr int
}

func (a *attributor) Event(e Event) {
	if e.Kind == EvCharge || e.Kind == EvBlockEnter {
		a.perInstr++
	}
}

func (a *attributor) Attribution() *Attribution { return a.attr }

// TestAttributorOptOut pins who rides the batched path: an Attributor,
// and a MultiObserver of Attributors at most one of which wants an
// Attribution, batch exactly where the unobserved run does; a fan-out
// with any other observer, or with two Attributions to fill, steps
// every instruction for its observer.
func TestAttributorOptOut(t *testing.T) {
	m := loopProgram(t, 200, 3, false)
	run := func(o Observer) *Counts {
		t.Helper()
		cfg := baseCfg()
		cfg.Intermittent, cfg.EB = true, 400
		cfg.Observer, cfg.Counts = o, &Counts{}
		if _, err := Run(m, cfg); err != nil {
			t.Fatal(err)
		}
		return cfg.Counts
	}
	plain := run(nil)
	if plain.BatchedSteps() == 0 {
		t.Fatal("the unobserved run batched nothing")
	}
	for name, members := range map[string][]*attributor{
		"attributor":            {{attr: &Attribution{}}},
		"attributor, no energy": {{}},
		"two, one attribution":  {{attr: &Attribution{}}, {}},
		"two, no attribution":   {{}, {}},
	} {
		var list []Observer
		for _, a := range members {
			list = append(list, a)
		}
		c := run(MultiObserver(list...))
		if c.BatchedSteps() != plain.BatchedSteps() || c.Stepped(StepObserver) != 0 {
			t.Errorf("%s: batched %d (unobserved %d), stepped %d for the observer",
				name, c.BatchedSteps(), plain.BatchedSteps(), c.Stepped(StepObserver))
		}
		for _, a := range members {
			if a.perInstr != 0 {
				t.Errorf("%s: an opted-out member was sent %d per-instruction events", name, a.perInstr)
			}
		}
	}
	for name, o := range map[string]Observer{
		"with a plain observer": MultiObserver(&attributor{attr: &Attribution{}}, observerFunc(func(Event) {})),
		"two attributions":      MultiObserver(&attributor{attr: &Attribution{}}, &attributor{attr: &Attribution{}}),
	} {
		if c := run(o); c.BatchedSteps() != 0 || c.Stepped(StepObserver) != c.Steps() {
			t.Errorf("%s: batched %d, stepped %d of %d for the observer", name, c.BatchedSteps(), c.Stepped(StepObserver), c.Steps())
		}
	}
}

// TestAttributionBoundToModule: the machine binds an Attribution to the
// module of its first run, like a Counts.
func TestAttributionBoundToModule(t *testing.T) {
	cfg := baseCfg()
	cfg.Observer = &attributor{attr: &Attribution{}}
	if _, err := Run(loopProgram(t, 10, -1, false), cfg); err != nil {
		t.Fatal(err)
	}
	_, err := Run(loopProgram(t, 10, -1, false), cfg)
	var ce *ConfigError
	if !errors.As(err, &ce) || ce.Field != "Observer" {
		t.Errorf("another module: got %v, want a ConfigError for Observer", err)
	}
}
