package crashtest

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
)

var update = flag.Bool("update", false, "rewrite the golden file under testdata from the current hunter")

// goldenHunt is one hunted case, flattened: the finding's class, detail,
// schedule and found_by, or a SkipError's text. A line with neither is a
// pass.
type goldenHunt struct {
	Case     string `json:"case"`
	Skip     string `json:"skip,omitempty"`
	Class    Class  `json:"class,omitempty"`
	Detail   string `json:"detail,omitempty"`
	Schedule string `json:"schedule,omitempty"`
	FoundBy  string `json:"found_by,omitempty"`
}

// TestHuntGolden pins the hunter's answers byte for byte at its default
// options: crc and randmath under each of the five techniques, the two
// sabotaged placements whose exhaustion baseline is already the finding,
// two sabotaged placements at a TBPF so large that only an injected,
// replayed and shrunk schedule can expose them, one of them again with
// a single sampled step and save point, so that a failure pair finds it
// and shrinking cuts the pair to one point, and a wait-style placement
// hunted outside its contract. The step cap and the shrink budget shape
// these answers; the failures per random or stride schedule do not (see
// TESTING.md, "Fixed budgets and fail-closed options"). Regenerate
// testdata/hunt_golden.ndjson with -update only for an intended change
// of the hunt.
func TestHuntGolden(t *testing.T) {
	type hunted struct {
		cs   Case
		opts Options
		note string // the options, when not the defaults
	}
	sabotaged := func(name, technique string, sabotage int, tbpf int64) Case {
		cs := benchCase(t, name, technique)
		cs.Sabotage, cs.TBPF = sabotage, tbpf
		return cs
	}
	cases, err := BenchCases([]string{"crc", "randmath"}, TechniqueNames(), 1)
	if err != nil {
		t.Fatal(err)
	}
	var runs []hunted
	for _, cs := range cases {
		runs = append(runs, hunted{cs: cs})
	}
	runs = append(runs,
		hunted{cs: sabotaged("randmath", "Alfred", 1, 0)},
		hunted{cs: sabotaged("crc", "Ratchet", 2, 0)},
		hunted{cs: sabotaged("randmath", "Ratchet", 2, 100_000_000)},
		hunted{cs: sabotaged("crc", "Ratchet", 2, 100_000_000)},
		hunted{cs: sabotaged("randmath", "Ratchet", 2, 100_000_000),
			opts: Options{ExhaustiveStepLimit: 1, SampledSteps: 1, SampledSaves: 1}, note: " sampled=1"},
		hunted{cs: sabotaged("randmath", "Rockclimb", 0, 0), opts: Options{AssumeAnytime: true}, note: " anytime"})

	var lines [][]byte
	for _, r := range runs {
		g := goldenHunt{Case: fmt.Sprintf("%s/%s sabotage=%d", r.cs.Name, r.cs.Technique, r.cs.Sabotage)}
		if r.cs.TBPF != 0 {
			g.Case += fmt.Sprintf(" tbpf=%d", r.cs.TBPF)
		}
		g.Case += r.note
		f, err := Hunt(context.Background(), r.cs, r.opts)
		switch {
		case IsSkip(err):
			g.Skip = err.Error()
		case err != nil:
			t.Fatalf("%s: %v", g.Case, err)
		case f != nil:
			g.Class, g.Detail, g.Schedule, g.FoundBy = f.Class, f.Detail, f.Schedule.String(), f.FoundBy
		}
		b, err := json.Marshal(g)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, b)
	}

	got := append(bytes.Join(lines, []byte("\n")), '\n')
	path := filepath.Join("testdata", "hunt_golden.ndjson")
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

// benchCase is the bundled benchmark's case under one technique at
// input seed 1.
func benchCase(t testing.TB, name, technique string) Case {
	t.Helper()
	cases, err := BenchCases([]string{name}, []string{technique}, 1)
	if err != nil {
		t.Fatal(err)
	}
	return cases[0]
}
