package transval_test

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"schematic/internal/bench"
	"schematic/internal/crashtest"
	"schematic/internal/emulator"
	"schematic/internal/ndjson"
	"schematic/internal/transval"
)

func TestValidateBenchmarks(t *testing.T) {
	benches, err := bench.All()
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	if testing.Short() {
		names["crc"] = true
		names["randmath"] = true
	}
	cov := transval.NewCoverage()
	for _, b := range benches {
		if len(names) > 0 && !names[b.Name] {
			continue
		}
		b := b
		cs := transval.Case{Name: b.Name, Source: b.Source, InputSeed: 1}
		f, err := transval.Validate(cs, transval.Options{Coverage: cov})
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if f != nil {
			t.Fatalf("%s: pipeline diverges at %s: want %s, got %s", b.Name, f.Stage, f.Want, f.Got)
		}
	}
	if cov.Programs == 0 {
		t.Fatal("coverage accountant saw no programs")
	}
}

func TestValidateFuzzStream(t *testing.T) {
	n := 24
	if testing.Short() {
		n = 6
	}
	cov := transval.NewCoverage()
	opts := transval.Options{Coverage: cov}
	skips := 0
	cases := append(transval.FuzzCases(1, n, 1000), transval.ProbeCases(1)...)
	for _, cs := range cases {
		f, err := transval.Validate(cs, opts)
		if err != nil {
			if _, skip := err.(*transval.SkipError); skip {
				skips++
				continue
			}
			t.Fatalf("%s: %v", cs.Name, err)
		}
		if f != nil {
			t.Fatalf("%s: pipeline diverges at %s: want %s, got %s\nsource:\n%s",
				cs.Name, f.Stage, f.Want, f.Got, cs.Source)
		}
	}
	if skips == len(cases) {
		t.Fatal("every fuzz case skipped")
	}
	// The fuzz stream plus the directed probes must reach the whole
	// opcode universe; a regression here means the generator or the
	// probes lost coverage.
	if !testing.Short() {
		if miss := cov.MissingOpcodes(); len(miss) > 0 {
			t.Errorf("opcodes never exercised: %v", miss)
		}
	}
	var buf bytes.Buffer
	cov.WriteReport(&buf)
	rep := buf.String()
	for _, want := range []string{"opcodes:", "rewrite rules:", "cfg shape:"} {
		if !strings.Contains(rep, want) {
			t.Fatalf("coverage report missing %q:\n%s", want, rep)
		}
	}
}

// TestValidateRejectsTamperedFuzzSource: a fuzz case compiles only the
// source its seed regenerates; a changed case source or provenance copy
// is a broken case, not a program to validate.
func TestValidateRejectsTamperedFuzzSource(t *testing.T) {
	cs := transval.FuzzCases(1, 1, 1)[0]
	cs.Source += "\nfunc int extra() { return 1; }\n"
	if _, err := transval.Validate(cs, transval.Options{}); err == nil {
		t.Error("Validate accepted a case whose source does not match its fuzz seed")
	}
	cs = transval.FuzzCases(1, 1, 1)[0]
	cs.Fuzz.Source += "\n// tampered"
	if _, err := transval.Validate(cs, transval.Options{}); err == nil {
		t.Error("Validate accepted a case whose fuzz source does not match its seed")
	}
}

func TestValidateCatchesTrapParity(t *testing.T) {
	// A program that traps must trap in every stage; the validator
	// classifies it as validated (trap = trap), not as a mismatch.
	cs := transval.Case{
		Name: "divzero",
		Source: `
func void main() {
	int a;
	a = 0;
	print(3 / a);
}
`,
		InputSeed: 1,
	}
	f, err := transval.Validate(cs, transval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if f != nil {
		t.Fatalf("trap-parity case reported divergence at %s", f.Stage)
	}
}

func TestFindingsRoundtrip(t *testing.T) {
	fs := []transval.Finding{
		{
			Case:   transval.Case{Name: "x", Source: "func void main() {\n}\n", InputSeed: 3},
			Stage:  "opt:dce",
			Detail: "opt:dce diverges from the AST interpreter",
			Want:   "output [1]",
			Got:    "output []",
		},
	}
	var buf bytes.Buffer
	if err := ndjson.Write(&buf, fs); err != nil {
		t.Fatal(err)
	}
	first := buf.String()
	got, err := ndjson.Read[transval.Finding](&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != fs[0] {
		t.Fatalf("roundtrip mismatch: %+v", got)
	}
	var again bytes.Buffer
	if err := ndjson.Write(&again, got); err != nil {
		t.Fatal(err)
	}
	if again.String() != first {
		t.Fatalf("NDJSON encoding not deterministic:\n%s\nvs\n%s", first, again.String())
	}
}

// TestValidateSurfacesConfigError: a harness misconfiguration (here a
// negative VM size) must come back as an error unwrapping to
// emulator.ErrInvalidConfig — not be folded into the trap observable,
// where it would masquerade as a program divergence or silently agree
// with a trapping reference.
func TestValidateSurfacesConfigError(t *testing.T) {
	cs := transval.ProbeCases(1)[0]
	_, err := transval.Validate(cs, transval.Options{VMSize: -5})
	if !errors.Is(err, emulator.ErrInvalidConfig) {
		t.Fatalf("Validate with VMSize=-5: got %v, want ErrInvalidConfig", err)
	}
}

// TestOptionsFailClosed: Validate and Replay refuse a negative TBPF,
// VMSize or ProfileRuns with a crashtest.ConfigError naming the field,
// before any run: the case has no source, so running it would fail
// otherwise.
func TestOptionsFailClosed(t *testing.T) {
	unbuilt := transval.Case{Name: "unbuilt"}
	for _, tc := range []struct {
		field string
		opts  transval.Options
	}{
		{"Options.TBPF", transval.Options{TBPF: -5}},
		{"Options.VMSize", transval.Options{VMSize: -5}},
		{"Options.ProfileRuns", transval.Options{ProfileRuns: -5}},
	} {
		var ce *crashtest.ConfigError
		if f, err := transval.Validate(unbuilt, tc.opts); f != nil || !errors.As(err, &ce) || ce.Field != tc.field {
			t.Errorf("Validate, %s: finding %+v, err %v; want a ConfigError naming it", tc.field, f, err)
		}
		if f, err := transval.Replay(transval.Finding{Case: unbuilt}, tc.opts); f != nil || !errors.As(err, &ce) || ce.Field != tc.field {
			t.Errorf("Replay, %s: finding %+v, err %v; want a ConfigError naming it", tc.field, f, err)
		}
	}
}
