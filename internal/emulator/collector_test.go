package emulator_test

import (
	"testing"

	"schematic/internal/emulator"
	"schematic/internal/ir"
	"schematic/internal/obs"
)

// TestCollectorNoPerInstructionAllocs is TestNilObserverNoPerInstructionAllocs
// with an obs.Collector attached. The Collector opts out of
// per-instruction events, so a run allocates for the program's shape —
// the attribution's block and site tables — and never per instruction:
// the same program looping 50 times longer allocates no more.
func TestCollectorNoPerInstructionAllocs(t *testing.T) {
	small := emulator.LoopProgram(t, 100, -1, false)
	large := emulator.LoopProgram(t, 5000, -1, false)
	run := func(m *ir.Module) func() {
		return func() {
			cfg := emulator.BaseCfg()
			cfg.Observer = obs.NewCollector()
			if _, err := emulator.Run(m, cfg); err != nil {
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

// BenchmarkEmulateCollected is BenchmarkEmulateObserved's loop with a
// fresh obs.Collector per run, the attribution-only observer that rides
// the batched path.
func BenchmarkEmulateCollected(b *testing.B) {
	m := emulator.LoopProgram(b, 1000, -1, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := emulator.BaseCfg()
		cfg.Observer = obs.NewCollector()
		if _, err := emulator.Run(m, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
