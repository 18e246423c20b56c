package verify

import (
	"context"
	"runtime"
	"testing"

	"schematic/internal/crashtest"
)

// BenchmarkVerifySweep times the perfbench verify workload's sweep at
// input seed 1: crc, randmath and stringsearch under the five
// techniques plus the two sabotaged placements, verified by a Sweeper
// and then hunted by a Hunter, each on NumCPU workers.
func BenchmarkVerifySweep(b *testing.B) {
	cases, err := crashtest.BenchCases([]string{"crc", "randmath", "stringsearch"}, crashtest.TechniqueNames(), 1)
	if err != nil {
		b.Fatal(err)
	}
	cases = append(cases, benchCase(b, "randmath", "Alfred", 1), benchCase(b, "crc", "Ratchet", 2))
	jobs := runtime.NumCPU()
	for i := 0; i < b.N; i++ {
		sum := Summarize((&Sweeper{Jobs: jobs}).Run(context.Background(), cases))
		if sum.Errors != 0 || sum.Bounded != 0 || sum.Counterexamples != 2 {
			b.Fatalf("sweep: %s", sum)
		}
		for _, r := range (&crashtest.Hunter{Jobs: jobs}).Run(context.Background(), cases) {
			if r.Err != nil {
				b.Fatalf("hunt %s/%s: %v", r.Case.Name, r.Case.Technique, r.Err)
			}
		}
	}
}
