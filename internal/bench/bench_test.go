package bench

import (
	"context"
	"strings"
	"testing"

	"schematic/internal/emulator"
	"schematic/internal/energy"
)

func TestSuiteLoads(t *testing.T) {
	bms, err := All()
	if err != nil {
		t.Fatal(err)
	}
	if len(bms) != len(Order)+2 { // the paper's eight plus the sha/stringsearch extras
		t.Fatalf("suite = %d benchmarks, want %d", len(bms), len(Order)+2)
	}
	for i, name := range Order {
		if bms[i].Name != name {
			t.Errorf("suite[%d] = %s, want %s", i, bms[i].Name, name)
		}
	}
}

func TestFootprintsMatchTable1(t *testing.T) {
	// The paper's Table I: dijkstra (≈30 KB), fft (≈16.7 KB) and rc4
	// (≈6.5 KB) exceed the MSP430FR5969's 2 KB SRAM; the rest fit.
	const svm = 2048
	over := map[string]bool{"dijkstra": true, "fft": true, "rc4": true, "stringsearch": true}
	bms, err := All()
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range bms {
		n, err := b.DataBytes()
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if over[b.Name] && n <= svm {
			t.Errorf("%s: footprint %d B should exceed %d B", b.Name, n, svm)
		}
		if !over[b.Name] && n > svm {
			t.Errorf("%s: footprint %d B should fit in %d B", b.Name, n, svm)
		}
		// Everything must fit in the 64 KB FRAM.
		if n > 64*1024 {
			t.Errorf("%s: footprint %d B exceeds the 64 KB NVM", b.Name, n)
		}
	}
}

func TestAllBenchmarksRunContinuously(t *testing.T) {
	bms, err := All()
	if err != nil {
		t.Fatal(err)
	}
	model := energy.MSP430FR5969()
	for _, b := range bms {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			m, err := b.Module()
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			inputs, err := b.Inputs(1)
			if err != nil {
				t.Fatal(err)
			}
			res, err := emulator.Run(m, emulator.Config{Model: model, Inputs: inputs})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if res.Verdict != emulator.Completed {
				t.Fatalf("verdict = %v", res.Verdict)
			}
			if len(res.Output) == 0 {
				t.Errorf("no output")
			}
			t.Logf("%s: %d cycles, %.1f µJ, output %v",
				b.Name, res.Cycles, res.Energy.Total()/1000, res.Output)
		})
	}
}

func TestInputsDeterministic(t *testing.T) {
	b, err := ByName("crc")
	if err != nil {
		t.Fatal(err)
	}
	in1, _ := b.Inputs(42)
	in2, _ := b.Inputs(42)
	in3, _ := b.Inputs(43)
	if len(in1["msg"]) != 256 {
		t.Fatalf("msg len = %d", len(in1["msg"]))
	}
	same, diff := true, false
	for i := range in1["msg"] {
		if in1["msg"][i] != in2["msg"][i] {
			same = false
		}
		if in1["msg"][i] != in3["msg"][i] {
			diff = true
		}
	}
	if !same || !diff {
		t.Errorf("seeding broken: same=%v diff=%v", same, diff)
	}
}

// The extras are benchmarks the paper's infrastructure could not run
// (stringsearch) or did not include (sha); they must also complete under
// SCHEMATIC on the standard platform.
func TestExtraBenchmarks(t *testing.T) {
	h := NewHarness()
	h.ProfileRuns = 3
	for _, name := range []string{"sha", "stringsearch"} {
		b, err := ByName(name)
		if err != nil {
			t.Fatalf("%s missing from the suite: %v", name, err)
		}
		tr, err := h.Run(context.Background(), b, Schematic{}, 10_000)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !tr.Completed() || !tr.Correct() {
			status := "incomplete"
			if tr.ApplyErr != nil {
				status = tr.ApplyErr.Error()
			} else if tr.Res != nil {
				status = tr.Res.Verdict.String()
			}
			t.Errorf("%s under SCHEMATIC: %s", name, status)
		}
	}
	// In the paper's table order the extras come after the original eight.
	bms, _ := All()
	if len(bms) != len(Order)+2 {
		t.Errorf("suite = %d entries, want %d + 2 extras", len(bms), len(Order))
	}
}

// The sha benchmark's core rounds must compute real SHA-1: cross-check the
// internal state against crypto/sha1 on the same 512-byte message (our
// port hashes raw blocks without padding, so compare via Sum on exactly
// 8 full blocks using the same defined initial state — i.e., recompute the
// expected compression manually with the stdlib on a padded-equal basis is
// not possible; instead verify against an independent Go reimplementation
// of the compression function).
func TestShaMatchesReferenceCompression(t *testing.T) {
	b, err := ByName("sha")
	if err != nil {
		t.Fatal(err)
	}
	m, err := b.Module()
	if err != nil {
		t.Fatal(err)
	}
	msg := make([]int64, 512)
	for i := range msg {
		msg[i] = int64((i*31 + 7) % 256)
	}
	res, err := emulator.Run(m, emulator.Config{
		Model:  energy.MSP430FR5969(),
		Inputs: map[string][]int64{"msg": msg},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Independent Go implementation of the SHA-1 compression rounds.
	h := [5]uint32{0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0}
	rotl := func(x uint32, n uint) uint32 { return x<<n | x>>(32-n) }
	for blk := 0; blk < 8; blk++ {
		var w [80]uint32
		for i := 0; i < 16; i++ {
			o := blk*64 + i*4
			w[i] = uint32(msg[o])<<24 | uint32(msg[o+1])<<16 | uint32(msg[o+2])<<8 | uint32(msg[o+3])
		}
		for i := 16; i < 80; i++ {
			w[i] = rotl(w[i-3]^w[i-8]^w[i-14]^w[i-16], 1)
		}
		a, bb, c, d, e := h[0], h[1], h[2], h[3], h[4]
		for i := 0; i < 80; i++ {
			var f, k uint32
			switch {
			case i < 20:
				f, k = bb&c|^bb&d, 0x5A827999
			case i < 40:
				f, k = bb^c^d, 0x6ED9EBA1
			case i < 60:
				f, k = bb&c|bb&d|c&d, 0x8F1BBCDC
			default:
				f, k = bb^c^d, 0xCA62C1D6
			}
			tmp := rotl(a, 5) + f + e + k + w[i]
			e, d, c, bb, a = d, c, rotl(bb, 30), a, tmp
		}
		h[0] += a
		h[1] += bb
		h[2] += c
		h[3] += d
		h[4] += e
	}
	want := []int64{int64(h[0] & 0xFFFF), int64(h[1] & 0xFFFF), int64(h[2] & 0xFFFF),
		int64(h[3] & 0xFFFF), int64(h[4] & 0xFFFF)}
	if len(res.Output) != 5 {
		t.Fatalf("output = %v", res.Output)
	}
	for i := range want {
		if res.Output[i] != want[i] {
			t.Fatalf("sha state %d = %d, want %d (full out %v)", i, res.Output[i], want[i], res.Output)
		}
	}
}

// TestTechniqueByName: every technique resolves by its display name and
// by its lowercase hyphen-free spelling; nothing else does.
func TestTechniqueByName(t *testing.T) {
	for _, tech := range append(Techniques(), AllNVMTechnique()) {
		lower := strings.ToLower(strings.ReplaceAll(tech.Name(), "-", ""))
		for _, name := range []string{tech.Name(), lower} {
			got, err := TechniqueByName(name)
			if err != nil || got.Name() != tech.Name() {
				t.Errorf("TechniqueByName(%q) = %v, %v; want %s", name, got, err, tech.Name())
			}
		}
	}
	if tech, err := TechniqueByName("allnvm"); err != nil || tech.Name() != "All-NVM" {
		t.Errorf("allnvm resolves to %v, %v", tech, err)
	}
	for _, bad := range []string{"", "none", "all-nvm", "RATCHET", "quantum"} {
		if _, err := TechniqueByName(bad); err == nil {
			t.Errorf("TechniqueByName(%q) resolved", bad)
		}
	}
}
