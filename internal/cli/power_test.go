package cli

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"schematic/internal/emulator"
	"schematic/internal/energy"
	"schematic/internal/harvest"
	"schematic/internal/ir"
)

func TestParsePowerCanonical(t *testing.T) {
	cases := []struct {
		in, want string
	}{
		{"", ""},
		{"exhaustion", "exhaustion"},
		{"periodic", "periodic:cycles=40000"},
		{"periodic:cycles=5000", "periodic:cycles=5000"},
		{"stride:n=777", "stride:n=777"},
		{"random:seed=9,max=4", "random:seed=9,mean=25000,max=4"},
		{"solar", "solar:seed=1,peak=0.8,period=2000000,day=0.5,cloud=0.4,window=40000,restart=1"},
		{"solar:seed=7,cloud=0.9,cap=1200", "solar:seed=7,peak=0.8,period=2000000,day=0.5,cloud=0.9,window=40000,cap=1200,restart=1"},
		{"rf:power=2", "rf:seed=1,power=2,burst=20000,gap=60000,restart=1"},
		{"piezo", "piezo:peak=0.6,period=40000,restart=1"},
		{"duty:duty=0.2", "duty:power=1,period=100000,duty=0.2,restart=1"},
		{"duty+periodic:cycles=9000", "duty:power=1,period=100000,duty=0.35,restart=1+periodic:cycles=9000"},
		{"trace:foo.ndjson", "trace:file=foo.ndjson"},
		{"csv:file=p.csv,hz=1000000", "csv:file=p.csv,hz=1000000,restart=1"},
		{" Solar : seed=2 ", "solar:seed=2,peak=0.8,period=2000000,day=0.5,cloud=0.4,window=40000,restart=1"},
	}
	for _, tc := range cases {
		ps, err := ParsePower(tc.in)
		if err != nil {
			t.Fatalf("ParsePower(%q): %v", tc.in, err)
		}
		if got := ps.String(); got != tc.want {
			t.Fatalf("ParsePower(%q).String() = %q, want %q", tc.in, got, tc.want)
		}
		// Canonical forms must be fixed points.
		again, err := ParsePower(ps.String())
		if err != nil || again.String() != ps.String() {
			t.Fatalf("canonical form %q not a fixed point (%v)", ps.String(), err)
		}
	}
}

func TestParsePowerErrors(t *testing.T) {
	for _, bad := range []string{
		"warp",               // unknown kind
		"solar:bogus=1",      // unknown parameter
		"solar:seed",         // missing value
		"periodic:cycles=x",  // bad number
		"periodic:cycles=-5", // negative
		"trace",              // missing file
		"csv:hz=100",         // missing file
		"solar+nope",         // bad composition member
	} {
		if _, err := ParsePower(bad); err == nil {
			t.Fatalf("ParsePower(%q) accepted", bad)
		}
	}
}

// TestParsePowerOneSource: a run has one capacitor, so a spec naming two
// power sources is rejected at parse time, naming both; synthetic
// injection members still compose with any one source.
func TestParsePowerOneSource(t *testing.T) {
	for _, tc := range []struct{ spec, first, second string }{
		{"solar+rf", "solar", "rf"},
		{"exhaustion+duty", "exhaustion", "duty"},
		{"piezo+periodic+csv:p.csv", "piezo", "csv"},
		{"trace:run.ndjson+exhaustion", "trace", "exhaustion"},
		{"solar:seed=1+solar:seed=2", "solar", "solar"},
	} {
		_, err := ParsePower(tc.spec)
		if err == nil {
			t.Fatalf("ParsePower(%q) accepted two power sources", tc.spec)
		}
		if want := fmt.Sprintf("%q and %q", tc.first, tc.second); !strings.Contains(err.Error(), want) {
			t.Errorf("ParsePower(%q) = %v, want it to name %s", tc.spec, err, want)
		}
	}
	for _, ok := range []string{"solar+periodic", "trace:run.ndjson+stride:n=9", "exhaustion+random", "periodic+stride"} {
		if _, err := ParsePower(ok); err != nil {
			t.Errorf("ParsePower(%q): %v", ok, err)
		}
	}
}

func TestPowerSpecFlags(t *testing.T) {
	for _, tc := range []struct {
		in                     string
		file, harvested, empty bool
	}{
		{"", false, false, true},
		{"exhaustion", false, false, false},
		{"periodic", false, false, false},
		{"solar", false, true, false},
		{"trace:x.ndjson", true, false, false},
		{"csv:x.csv", true, true, false},
		{"duty+stride:n=100", false, true, false},
	} {
		ps, err := ParsePower(tc.in)
		if err != nil {
			t.Fatal(err)
		}
		if ps.RequiresFile() != tc.file || ps.Harvested() != tc.harvested || ps.Empty() != tc.empty {
			t.Fatalf("%q: file=%v harvested=%v empty=%v", tc.in, ps.RequiresFile(), ps.Harvested(), ps.Empty())
		}
	}
}

func TestPowerSpecBuild(t *testing.T) {
	// Empty spec: nil schedule (default physics).
	ps, _ := ParsePower("")
	if sched, err := ps.Build(1000); err != nil || sched != nil {
		t.Fatalf("empty build: %v %v", sched, err)
	}

	// Synthetic members get exhaustion physics composed in.
	ps, _ = ParsePower("periodic:cycles=5000")
	sched, err := ps.Build(1000)
	if err != nil {
		t.Fatal(err)
	}
	if name := sched.Name(); !strings.Contains(name, "exhaustion") || !strings.Contains(name, "periodic") {
		t.Fatalf("synthetic build name %q lacks composed exhaustion", name)
	}

	// Harvested members carry their own physics (no exhaustion).
	ps, _ = ParsePower("solar:seed=3")
	sched, err = ps.Build(2000)
	if err != nil {
		t.Fatal(err)
	}
	if name := sched.Name(); strings.Contains(name, "exhaustion") || !strings.Contains(name, "harvest(solar") {
		t.Fatalf("harvest build name %q", name)
	}

	// Harvested members need a capacitor size from somewhere.
	if _, err := ps.Build(0); err == nil {
		t.Fatal("harvest build without EB or cap= accepted")
	}
	ps, _ = ParsePower("solar:cap=1500")
	if ps.Capacity() != 1500 {
		t.Fatalf("Capacity() = %g", ps.Capacity())
	}
	if _, err := ps.Build(0); err != nil {
		t.Fatalf("cap= build: %v", err)
	}

	// Fresh instances per Build call. The capacitor is a stateless
	// value (the emulator owns its level), so run a stateful member: a
	// one-shot stride fails each build's run at its first step.
	one := ir.MustParse("module one\nfunc void main() regs 1 {\nentry:\n  r0 = const 7\n  out r0\n  ret\n}\n")
	ps, _ = ParsePower("solar:cap=1500+stride:n=1,max=1")
	for i := 0; i < 2; i++ {
		sched, err := ps.Build(0)
		if err != nil {
			t.Fatal(err)
		}
		cfg := emulator.Config{Model: energy.MSP430FR5969(), Intermittent: true, EB: 1500, Schedule: sched}
		if res, err := emulator.Run(one, cfg); err != nil || res.InjectedFailures != 1 {
			t.Fatalf("build %d: %+v, error %v: want the one-shot stride's one injection; Build reused schedule state", i, res, err)
		}
	}
}

func TestPowerSpecBuildTrace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ndjson")
	rec := harvest.NewRecorder(nil, 500)
	rec.Event(emulator.Event{Kind: emulator.EvPowerFailure, Energy: 1000, CapEnergy: 2,
		Point: emulator.PointCharge, Seq: 1})
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Trace().Write(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	ps, err := ParsePower("trace:" + path)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := ps.Build(0)
	if err != nil {
		t.Fatal(err)
	}
	if want := "trace(charge@1)"; sched.Name() != want {
		t.Fatalf("trace build name %q", sched.Name())
	}
	if _, err := ParsePower("trace:/does/not/exist.ndjson"); err != nil {
		t.Fatalf("parse should not touch the filesystem: %v", err)
	}
	ps, _ = ParsePower("trace:/does/not/exist.ndjson")
	if _, err := ps.Build(0); err == nil {
		t.Fatal("build of missing trace accepted")
	}
}

// FuzzPowerSpecRoundTrip: every spec ParsePower accepts has a canonical
// form that re-parses to itself, and a spec that reads no file builds
// without panicking. The seeds include integer parameters on both sides
// of 2^53, fractions of integer parameters, and non-finite values. Run
// with
//
//	go test ./internal/cli -run '^$' -fuzz FuzzPowerSpecRoundTrip -fuzztime 30s
func FuzzPowerSpecRoundTrip(f *testing.F) {
	for _, seed := range []string{
		"solar:seed=7,cloud=0.9,cap=1200", "duty+periodic:cycles=9000", "csv:file=p.csv,hz=1000000",
		"random:mean=5e18", "stride:n=1e19", "stride:n=9007199254740992", "stride:n=9007199254740993",
		"random:seed=3,mean=9007199254740992,max=2", "stride:max=0.5", "periodic:cycles=1.5",
		"solar:cap=inf", "solar:peak=NaN", "rf:power=0x1p-2", "piezo:peak=-0", "duty:duty=1e-300",
		"solar:peak=1e21", "exhaustion+random:seed=1e300",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		ps, err := ParsePower(spec)
		if err != nil {
			return
		}
		canon := ps.String()
		again, err := ParsePower(canon)
		if err != nil {
			t.Fatalf("%q: canonical form %q does not re-parse: %v", spec, canon, err)
		}
		if again.String() != canon {
			t.Fatalf("%q: canonical form %q re-parses to %q", spec, canon, again.String())
		}
		if !ps.RequiresFile() {
			if _, err := ps.Build(1000); err != nil {
				t.Fatalf("%q: build: %v", spec, err)
			}
		}
	})
}

// TestParsePowerIntegerBound: an integer parameter above 2^53 is refused
// with an error naming it; 2^53 itself is accepted.
func TestParsePowerIntegerBound(t *testing.T) {
	for _, tc := range []struct{ spec, param string }{
		{"random:mean=5e18", "mean"},
		{"stride:n=1e19", "n"},
		{"periodic:cycles=9007199254740994", "cycles"},
		{"solar:seed=1e300", "seed"},
	} {
		_, err := ParsePower(tc.spec)
		if err == nil || !strings.Contains(err.Error(), tc.param+"=") || !strings.Contains(err.Error(), "2^53") {
			t.Errorf("ParsePower(%q) = %v, want an error naming %s and 2^53", tc.spec, err, tc.param)
		}
	}
	ps, err := ParsePower("random:mean=9007199254740992")
	if err != nil || ps.String() != "random:seed=1,mean=9007199254740992" {
		t.Fatalf("2^53 mean: %v, %v", ps, err)
	}
}
