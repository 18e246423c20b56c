package crashtest

import (
	"bytes"
	"strings"
	"testing"
)

func TestFindingsRoundTrip(t *testing.T) {
	findings := []Finding{
		{
			Case:     Case{Name: "a", Source: "func void main() { print(1); }", Technique: "Ratchet", InputSeed: 3},
			Schedule: ScheduleSpec{Exhaust: true, Points: []PointSpec{{Kind: "step", N: 7}}},
			Class:    ClassDivergence,
			Detail:   "output[0] = 2, oracle 1",
			FoundBy:  "step@7",
		},
		{
			Case:     Case{Name: "b", Source: "x", Technique: "Schematic"},
			Schedule: ScheduleSpec{Exhaust: true},
			Class:    ClassForwardProgress,
		},
	}
	var buf bytes.Buffer
	if err := WriteFindings(&buf, findings); err != nil {
		t.Fatal(err)
	}
	// NDJSON: one line per finding, blank lines tolerated on read.
	if got := strings.Count(buf.String(), "\n"); got != 2 {
		t.Fatalf("serialized %d lines, want 2", got)
	}
	buf.WriteString("\n")
	back, err := ReadFindings(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 {
		t.Fatalf("read %d findings, want 2", len(back))
	}
	if back[0].Schedule.String() != findings[0].Schedule.String() ||
		back[0].Class != findings[0].Class ||
		back[0].Case.Source != findings[0].Case.Source {
		t.Errorf("finding 0 mangled: %+v", back[0])
	}
}

func TestReadFindingsBadLine(t *testing.T) {
	r := strings.NewReader("{\"class\":\"output-divergence\"}\nnot json\n")
	if _, err := ReadFindings(r); err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("err = %v, want line-numbered parse error", err)
	}
}

func TestReplayRejectsTamperedFuzzSource(t *testing.T) {
	cases := FuzzCases(1, 1, []string{"Ratchet"}, 1)
	f := Finding{Case: cases[0], Schedule: ScheduleSpec{Exhaust: true}, Class: ClassDivergence}
	f.Case.Fuzz.Source = f.Case.Fuzz.Source + "\n// tampered"
	if _, err := Replay(f, Options{}); err == nil {
		t.Fatal("replay accepted a repro whose source does not match its fuzz seed")
	}

	// The source the case compiles is checked too, not only the copy its
	// provenance carries.
	cs := FuzzCases(1, 1, []string{"Ratchet"}, 1)[0]
	cs.Source += "\nfunc int extra() { return 1; }\n"
	if _, err := Replay(Finding{Case: cs, Schedule: ScheduleSpec{Exhaust: true}, Class: ClassDivergence}, Options{}); err == nil {
		t.Error("replay accepted a repro whose case source does not match its fuzz seed")
	}
	if _, err := Prepare(cs, Options{}); err == nil {
		t.Error("Prepare accepted a case whose source does not match its fuzz seed")
	}
}
