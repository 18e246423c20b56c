package transval_test

import (
	"bytes"
	"testing"

	"schematic/internal/ndjson"
	"schematic/internal/opt"
	"schematic/internal/transval"
)

// TestSeededMiscompileIsBisected is the mutation check for the validator
// itself: with a deliberately wrong rewrite seeded into dce (the
// test-only SabotageDropStore flag makes it silently drop one store per
// function), the validator must notice, bisect the divergence to that
// exact pass, shrink the counterexample, and emit a repro that replays
// deterministically.
func TestSeededMiscompileIsBisected(t *testing.T) {
	opt.SabotageDropStore = true
	defer func() { opt.SabotageDropStore = false }()

	opts := transval.Options{SkipPlacement: true}
	var found *transval.Finding
	var clean transval.Case
	n := 40
	if testing.Short() {
		n = 20
	}
	for _, cs := range transval.FuzzCases(7, n, 500) {
		f, err := transval.Validate(cs, opts)
		if err != nil {
			if _, skip := err.(*transval.SkipError); skip {
				continue
			}
			t.Fatalf("%s: %v", cs.Name, err)
		}
		if f == nil {
			continue
		}
		if f.Stage != "opt:dce" {
			t.Fatalf("%s: sabotage in dce was bisected to %s (detail: %s)", cs.Name, f.Stage, f.Detail)
		}
		if found == nil {
			found = f
			clean = cs
		}
	}
	if found == nil {
		t.Fatal("no fuzz case exposed the seeded dce miscompile; sabotage hook dead?")
	}

	// Shrinking must not have grown the counterexample and must keep it
	// pinned to the same pass.
	if len(found.Case.Source) > len(clean.Source) {
		t.Fatalf("shrunk source (%d bytes) larger than original (%d bytes)",
			len(found.Case.Source), len(clean.Source))
	}

	// The NDJSON repro must round-trip and replay to the same stage.
	var buf bytes.Buffer
	if err := ndjson.Write(&buf, []transval.Finding{*found}); err != nil {
		t.Fatal(err)
	}
	back, err := ndjson.Read[transval.Finding](&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 {
		t.Fatalf("repro stream has %d findings, want 1", len(back))
	}
	for i := 0; i < 2; i++ {
		got, err := transval.Replay(back[0], opts)
		if err != nil {
			t.Fatalf("replay %d: %v", i, err)
		}
		if got.Stage != found.Stage || got.Want != found.Want || got.Got != found.Got {
			t.Fatalf("replay %d not deterministic: got {%s %s %s}, want {%s %s %s}",
				i, got.Stage, got.Want, got.Got, found.Stage, found.Want, found.Got)
		}
	}

	// With the sabotage off, the same case must validate cleanly — the
	// finding was the mutation's fault, not the pipeline's.
	opt.SabotageDropStore = false
	f, err := transval.Validate(found.Case, opts)
	if err != nil {
		t.Fatal(err)
	}
	if f != nil {
		t.Fatalf("case still diverges at %s without sabotage", f.Stage)
	}
}
