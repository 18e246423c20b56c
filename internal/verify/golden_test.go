package verify

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"schematic/internal/crashtest"
)

var update = flag.Bool("update", false, "rewrite the golden file under testdata from the current verifier")

// goldenReport is one case's Report without Elapsed, flattened: the
// verdict, the search's counts and bound, and the finding's class,
// schedule and found_by. Skip carries a SkipError's text instead.
type goldenReport struct {
	Case         string  `json:"case"`
	Skip         string  `json:"skip,omitempty"`
	Verdict      Verdict `json:"verdict,omitempty"`
	States       int     `json:"states"`
	Edges        int64   `json:"edges"`
	DedupHits    int64   `json:"dedup_hits"`
	MaxDepth     int     `json:"max_depth"`
	WaitContract bool    `json:"wait_contract"`
	Bound        string  `json:"bound"`
	Class        string  `json:"class,omitempty"`
	Schedule     string  `json:"schedule,omitempty"`
	FoundBy      string  `json:"found_by,omitempty"`
}

// TestVerifyGolden pins the verifier's answers byte for byte: crc and
// randmath under each of the five techniques, plus the two sabotaged
// placements the verify benchmark sweeps, plus two sabotaged placements
// at a TBPF so large that the counterexample lies below the root and is
// confirmed and shrunk by a continuous replay. The counts — states, edges,
// dedup hits, depth — are what the search did, not just what it
// concluded, so an engine change that alters which injection points a
// hooked run reports, or how their states hash apart, shows here even
// when every verdict holds. Regenerate testdata/verify_golden.ndjson
// with -update only for an intended change of the search.
func TestVerifyGolden(t *testing.T) {
	cases, err := crashtest.BenchCases([]string{"crc", "randmath"}, crashtest.TechniqueNames(), 1)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases,
		benchCase(t, "randmath", "Alfred", 1),
		benchCase(t, "crc", "Ratchet", 2))
	for _, name := range []string{"randmath", "crc"} {
		cs := benchCase(t, name, "Ratchet", 2)
		cs.TBPF = 100_000_000
		cases = append(cases, cs)
	}

	var lines [][]byte
	for _, cs := range cases {
		g := goldenReport{Case: fmt.Sprintf("%s/%s sabotage=%d", cs.Name, cs.Technique, cs.Sabotage)}
		if cs.TBPF != 0 {
			g.Case += fmt.Sprintf(" tbpf=%d", cs.TBPF)
		}
		rep, err := Run(context.Background(), cs, Options{})
		switch {
		case crashtest.IsSkip(err):
			g.Skip = err.Error()
		case err != nil:
			t.Fatalf("%s: %v", g.Case, err)
		default:
			g.Verdict, g.States, g.Edges, g.DedupHits = rep.Verdict, rep.States, rep.Edges, rep.DedupHits
			g.MaxDepth, g.WaitContract, g.Bound = rep.MaxDepth, rep.WaitContract, rep.Bound
			if f := rep.Finding; f != nil {
				g.Class, g.Schedule, g.FoundBy = string(f.Class), f.Schedule.String(), f.FoundBy
			}
		}
		b, err := json.Marshal(g)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, b)
	}

	got := append(bytes.Join(lines, []byte("\n")), '\n')
	path := filepath.Join("testdata", "verify_golden.ndjson")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gotLines, wantLines := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Errorf("%d lines, golden has %d", len(gotLines), len(wantLines))
	}
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			t.Errorf("line %d changed:\n got %s\nwant %s", i+1, gotLines[i], wantLines[i])
		}
	}
}
