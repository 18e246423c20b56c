package emulator

import (
	"errors"
	"testing"

	"schematic/internal/ir"
)

// TestCountsLoop pins the counts of the n-iteration loop on both paths:
// main is booted once per run, the header's Then arm is taken n times and
// its Else arm once, and counts add up across runs.
func TestCountsLoop(t *testing.T) {
	const n = 10
	m := loopProgram(t, n, -1, false)
	mainF := m.FuncByName("main")
	entry, head, body, done := mainF.Blocks[0], mainF.Blocks[1], mainF.Blocks[2], mainF.Blocks[3]
	c := &Counts{}
	cfg := baseCfg()
	cfg.Counts = c
	res, err := Run(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	stepped := cfg
	stepped.Observer = observerFunc(func(Event) {})
	resS, err := Run(m, stepped)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		what      string
		got, want int64
	}{
		{"main calls", c.Calls(mainF), 2},
		{"entry->head", c.Taken(entry, 0), 2},
		{"head->body", c.Taken(head, 0), 2 * n},
		{"head->done", c.Taken(head, 1), 2},
		{"body->head", c.Taken(body, 0), 2 * n},
		{"done (returns)", c.Taken(done, 0), 0},
		{"steps", c.Steps(), res.Steps + resS.Steps},
	} {
		if tc.got != tc.want {
			t.Errorf("%s = %d, want %d", tc.what, tc.got, tc.want)
		}
	}
	if b := c.BatchedSteps(); b <= 0 || b > res.Steps {
		t.Errorf("BatchedSteps = %d, want in (0, %d]: only the unobserved run batches", b, res.Steps)
	}
}

// TestCountsBoundToModule: a Counts is bound to the module of its first
// run. Recompiling the unchanged module keeps the ordinals, so counting
// continues; a different module or an edited one fails closed.
func TestCountsBoundToModule(t *testing.T) {
	m := loopProgram(t, 10, -1, false)
	mainF := m.FuncByName("main")
	cfg := baseCfg()
	cfg.Counts = &Counts{}
	if _, err := Run(m, cfg); err != nil {
		t.Fatal(err)
	}
	wantCountsError := func(what string, err error) {
		t.Helper()
		var ce *ConfigError
		if !errors.As(err, &ce) || ce.Field != "Counts" || !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("%s: got %v, want a ConfigError for Counts", what, err)
		}
	}
	_, err := Run(loopProgram(t, 10, -1, false), cfg)
	wantCountsError("another module", err)

	// A new model instance compiles a fresh dispatch program for the
	// same, unchanged module.
	again := baseCfg()
	again.Counts = cfg.Counts
	if _, err := Run(m, again); err != nil {
		t.Fatalf("recompiled unchanged module: %v", err)
	}
	if got := cfg.Counts.Calls(mainF); got != 2 {
		t.Errorf("main calls = %d after two runs, want 2", got)
	}

	for _, in := range mainF.Blocks[1].Instrs {
		if k, ok := in.(*ir.Const); ok {
			k.Val++
		}
	}
	_, err = Run(m, cfg)
	wantCountsError("edited module", err)
}

// TestCountsNoAllocs: once sized, counting allocates nothing, so a
// counted run allocates no more than the same run uncounted.
func TestCountsNoAllocs(t *testing.T) {
	m := loopProgram(t, 1000, -1, false)
	cfg := baseCfg() // one model for every run, so the dispatch cache hits
	counted := cfg
	counted.Counts = &Counts{}
	run := func(c Config) func() {
		return func() {
			if _, err := Run(m, c); err != nil {
				t.Fatal(err)
			}
		}
	}
	run(counted)() // sizes the counts
	plain := testing.AllocsPerRun(5, run(cfg))
	with := testing.AllocsPerRun(5, run(counted))
	if with > plain {
		t.Errorf("a counted run allocates %.0f times, an uncounted one %.0f", with, plain)
	}
}
