package bench

import (
	"testing"

	"schematic/internal/trace"
)

// TestProfileRunsBatched guards the profiler's fast path: profiling
// counts come from the emulator's dispatch loop, so a profiling run
// batches like any unobserved run. Anything that pushes profiling back
// onto the stepped path (an Observer on the profiling runs, say) drops
// the batched share to zero.
func TestProfileRunsBatched(t *testing.T) {
	bms, err := All()
	if err != nil {
		t.Fatal(err)
	}
	for _, bm := range bms {
		m, err := bm.Module()
		if err != nil {
			t.Fatal(err)
		}
		p, err := trace.Collect(m, trace.Options{Runs: 10, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if p.Steps <= 0 {
			t.Fatalf("%s: profile recorded %d steps", bm.Name, p.Steps)
		}
		share := float64(p.BatchedSteps) / float64(p.Steps)
		t.Logf("%s: %d of %d profiling instructions batched (%.4f)", bm.Name, p.BatchedSteps, p.Steps, share)
		if share < 0.9 {
			t.Errorf("%s: %d of %d profiling instructions batched (%.4f), want at least 0.9",
				bm.Name, p.BatchedSteps, p.Steps, share)
		}
	}
}

// BenchmarkCollect measures the profiler on every bundled benchmark: 50
// profiling runs per op, reported as emulated instructions per second.
//
//	go test -run '^$' -bench Collect ./internal/bench
func BenchmarkCollect(b *testing.B) {
	bms, err := All()
	if err != nil {
		b.Fatal(err)
	}
	model := NewHarness().Model
	for _, bm := range bms {
		b.Run(bm.Name, func(b *testing.B) {
			m, err := bm.Module()
			if err != nil {
				b.Fatal(err)
			}
			var steps int64
			for i := 0; i < b.N; i++ {
				p, err := trace.Collect(m, trace.Options{Runs: 50, Seed: 1, Model: model})
				if err != nil {
					b.Fatal(err)
				}
				steps += p.Steps
			}
			b.ReportMetric(float64(steps)/b.Elapsed().Seconds()/1e6, "Minstr/s")
		})
	}
}
