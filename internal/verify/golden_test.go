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
// confirmed and shrunk by a continuous replay, plus stringsearch under
// the five techniques, the verify benchmark's two longest searches. The
// counts — states, edges, dedup hits, depth — are what the search did,
// not just what it concluded, so an engine change that alters which
// injection points a hooked run reports, or how their states hash apart,
// shows here even when every verdict holds. Regenerate
// testdata/verify_golden.ndjson with -update only for an intended change
// of the search.
//
// Merging changes no count, so the golden cannot see how many runs
// merged; the test also holds the cases' merged runs to at least
// goldenMerged.
func TestVerifyGolden(t *testing.T) {
	got, j := goldenLines(t, nil)
	path := filepath.Join("testdata", "verify_golden.ndjson")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	checkGolden(t, got)
	if j.merged < goldenMerged {
		t.Errorf("%d of %d explored runs merged; offering keys where runs join merged %d", j.merged, j.explored, goldenMerged)
	}
	t.Logf("%d of %d explored runs merged", j.merged, j.explored)
}

// goldenMerged is how many of the golden cases' 7,085 explored runs
// merge when every commit offers a key. Keys are offered only where runs
// join, and offering fewer keys can only cost merges, so the golden
// cases must merge at least as many.
const goldenMerged = 6364

// TestMergeOracle runs the golden cases under the merge oracle: a run
// that meets a known full-state key keeps going, and what it does from
// there must equal the memo's prediction (Run fails otherwise). Every
// report must still equal the golden, and the sweep must hold enough
// predictions to mean something. Two wait placements explored under
// AssumeAnytime, whose runs join after sleep refills, run under it too.
func TestMergeOracle(t *testing.T) {
	var checked int64
	got, _ := goldenLines(t, &checked)
	checkGolden(t, got)
	for _, name := range []string{"crc", "randmath"} {
		rep, err := run(context.Background(), benchCase(t, name, "Rockclimb", 0), Options{AssumeAnytime: true}, &checked)
		if err != nil || rep.Verdict != Counterexample {
			t.Fatalf("%s/Rockclimb under AssumeAnytime: %+v, %v; want a counterexample", name, rep, err)
		}
	}
	if checked < 1000 {
		t.Fatalf("the oracle held %d predictions; the sweep exercises too few merges", checked)
	}
	t.Logf("%d predictions held", checked)
}

// TestJoinAfterSleep: the runs of a wait placement explored under
// AssumeAnytime join at the first commit after a sleep refill, which
// leaves every run with a full capacitor. crc and randmath under
// Rockclimb each find their counterexample after 8 explored runs, 6 of
// them merged; without the offer after a refill, 3 merge.
func TestJoinAfterSleep(t *testing.T) {
	for _, name := range []string{"crc", "randmath"} {
		var last Progress
		opts := Options{AssumeAnytime: true, Progress: func(p Progress) { last = p }}
		rep, err := Run(context.Background(), benchCase(t, name, "Rockclimb", 0), opts)
		if err != nil || rep.Verdict != Counterexample {
			t.Fatalf("%s/Rockclimb: %+v, %v; want a counterexample", name, rep, err)
		}
		if last.Explored != 8 || last.Merged < 6 {
			t.Errorf("%s/Rockclimb: %d of %d explored runs merged; want at least 6 of 8", name, last.Merged, last.Explored)
		}
	}
}

// joins sums the golden cases' final Progress: the runs explored and
// the runs merged.
type joins struct{ merged, explored int }

// goldenLines runs the golden cases, under the merge oracle when checked
// is non-nil (see run), and renders one goldenReport line per case.
func goldenLines(t *testing.T, checked *int64) ([]byte, joins) {
	t.Helper()
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
	deep, err := crashtest.BenchCases([]string{"stringsearch"}, crashtest.TechniqueNames(), 1)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, deep...)

	var lines [][]byte
	var j joins
	for _, cs := range cases {
		g := goldenReport{Case: fmt.Sprintf("%s/%s sabotage=%d", cs.Name, cs.Technique, cs.Sabotage)}
		if cs.TBPF != 0 {
			g.Case += fmt.Sprintf(" tbpf=%d", cs.TBPF)
		}
		var last Progress
		rep, err := run(context.Background(), cs, Options{Progress: func(p Progress) { last = p }}, checked)
		j.merged += last.Merged
		j.explored += last.Explored
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
	return append(bytes.Join(lines, []byte("\n")), '\n'), j
}

// checkGolden compares rendered lines with testdata/verify_golden.ndjson.
func checkGolden(t *testing.T, got []byte) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", "verify_golden.ndjson"))
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
