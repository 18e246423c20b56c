package crashtest

import (
	"context"
	"runtime"
	"testing"
)

// BenchmarkHunt times the hunt half of the perfbench verify workload at
// input seed 1: crc, randmath and stringsearch under the five
// techniques plus the two sabotaged placements (randmath/Alfred with
// sabotage 1, crc/Ratchet with sabotage 2), hunted by a Hunter on
// NumCPU workers with the default options. It fails unless exactly the
// two sabotaged cases have findings.
func BenchmarkHunt(b *testing.B) {
	cases, err := BenchCases([]string{"crc", "randmath", "stringsearch"}, TechniqueNames(), 1)
	if err != nil {
		b.Fatal(err)
	}
	sabotaged, err := BenchCases([]string{"randmath", "crc"}, []string{"Alfred", "Ratchet"}, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, cs := range sabotaged {
		switch cs.Name + "/" + cs.Technique {
		case "randmath/Alfred":
			cs.Sabotage = 1
		case "crc/Ratchet":
			cs.Sabotage = 2
		default:
			continue
		}
		cases = append(cases, cs)
	}
	if len(cases) != 17 {
		b.Fatalf("%d cases, want the workload's 17", len(cases))
	}
	h := &Hunter{Jobs: runtime.NumCPU()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range h.Run(context.Background(), cases) {
			switch {
			case r.Err != nil:
				b.Fatalf("hunt %s/%s: %v", r.Case.Name, r.Case.Technique, r.Err)
			case (r.Finding != nil) != (r.Case.Sabotage != 0):
				b.Fatalf("hunt %s/%s (sabotage %d): finding %v", r.Case.Name, r.Case.Technique, r.Case.Sabotage, r.Finding)
			}
		}
	}
}
