package bench

import (
	"encoding/json"
	"fmt"
	"testing"

	"schematic/internal/fuzzgen"
	"schematic/internal/ir"
	"schematic/internal/minic"
	"schematic/internal/opt"
	"schematic/internal/trace"
)

// The profile golden corpus: every trace.Collect answer the placement
// passes read — invocations, block and edge frequencies, loop-trip
// estimates and the energy averages — for the bundled benchmarks and two
// fuzz corpora, plain and optimized. The corpus froze the answers of the
// event-driven profiler (an emulator Observer that mirrored the call
// stack from block entries and returns); any divergence means profiling
// changed what checkpoint placement sees.
//
// Regenerating the corpus (-update) is only legitimate when a change
// deliberately alters what a profile holds (the energy model, input
// generation, a benchmark); see TESTING.md.

// profileLine is one corpus entry. Functions appear in module order;
// BlockFreq and LoopIters follow f.Blocks, EdgeFreq follows ir.Edges(f).
type profileLine struct {
	Label string        `json:"label"`
	Err   string        `json:"err,omitempty"`
	Runs  int           `json:"runs"`
	Seed  int64         `json:"seed"`
	Funcs []profileFunc `json:"funcs,omitempty"`

	AvgEnergyPerCycle float64 `json:"avg_energy_per_cycle"`
	AvgCycles         float64 `json:"avg_cycles"`
	AvgEnergy         float64 `json:"avg_energy"`
}

type profileFunc struct {
	Name        string  `json:"name"`
	Invocations int64   `json:"invocations"`
	BlockFreq   []int64 `json:"block_freq"`
	EdgeFreq    []int64 `json:"edge_freq"`
	LoopIters   []int   `json:"loop_iters"`
}

// encodeProfile renders one Collect outcome as its corpus line.
func encodeProfile(t *testing.T, label string, m *ir.Module, opts trace.Options) string {
	t.Helper()
	pl := profileLine{Label: label, Runs: opts.Runs, Seed: opts.Seed}
	p, err := trace.Collect(m, opts)
	if err != nil {
		pl.Err = err.Error()
	} else {
		pl.Runs = p.Runs
		pl.AvgEnergyPerCycle, pl.AvgCycles, pl.AvgEnergy = p.AvgEnergyPerCycle, p.AvgCycles, p.AvgEnergy
		for _, f := range m.Funcs {
			pf := profileFunc{Name: f.Name, Invocations: p.Invocations(f)}
			for _, b := range f.Blocks {
				pf.BlockFreq = append(pf.BlockFreq, p.BlockFreq(f, b))
				pf.LoopIters = append(pf.LoopIters, p.LoopIterEstimate(b))
			}
			for _, e := range ir.Edges(f) {
				pf.EdgeFreq = append(pf.EdgeFreq, p.EdgeFreq(f, e))
			}
			pl.Funcs = append(pl.Funcs, pf)
		}
	}
	line, merr := json.Marshal(pl)
	if merr != nil {
		t.Fatalf("%s: encode line: %v", label, merr)
	}
	return string(line)
}

// checkProfile records (under -update) or checks one corpus line.
func checkProfile(t *testing.T, label string, m *ir.Module, opts trace.Options) {
	t.Helper()
	got := encodeProfile(t, label, m, opts)
	if *update {
		profileGolden.updated = append(profileGolden.updated, got)
		return
	}
	if want := profileGolden.want(t, label); got != want {
		t.Fatalf("%s: profile diverges from the golden corpus:\ngot:  %s\nwant: %s", label, got, want)
	}
}

// TestProfileGolden profiles every bundled benchmark at two seeds, and
// every program of a default and an adversarial fuzz corpus before and
// after the optimizer, and requires each profile to reproduce its
// corpus line byte for byte. Short mode keeps two benchmarks and the
// first few programs of each corpus.
func TestProfileGolden(t *testing.T) {
	bms, err := All()
	if err != nil {
		t.Fatal(err)
	}
	fuzzN, advN := 24, 16
	if testing.Short() {
		short := bms[:0]
		for _, bm := range bms {
			if bm.Name == "crc" || bm.Name == "randmath" {
				short = append(short, bm)
			}
		}
		bms = short
		fuzzN, advN = 4, 3
	}
	for _, bm := range bms {
		m, err := bm.Module()
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range []int64{1, 7} {
			checkProfile(t, fmt.Sprintf("bench/%s/seed%d", bm.Name, seed), m,
				trace.Options{Runs: 10, Seed: seed})
		}
	}
	corpora := []struct {
		name  string
		progs []fuzzgen.Program
	}{
		{"default", fuzzgen.Corpus(42, fuzzN, fuzzgen.DefaultOptions())},
		{"adversarial", fuzzgen.Corpus(7, advN, fuzzgen.AdversarialOptions())},
	}
	for _, c := range corpora {
		for i, prog := range c.progs {
			for _, optimized := range []bool{false, true} {
				label := fmt.Sprintf("fuzz/%s/%03d/plain", c.name, i)
				m, err := minic.Compile(fmt.Sprintf("fuzz%03d", i), prog.Source)
				if err != nil {
					continue // generator occasionally emits programs the frontend rejects
				}
				if optimized {
					label = fmt.Sprintf("fuzz/%s/%03d/opt", c.name, i)
					if _, err := opt.Optimize(m); err != nil {
						t.Fatalf("%s: optimize: %v", label, err)
					}
				}
				checkProfile(t, label, m, trace.Options{Runs: 5, Seed: prog.Seed, MaxSteps: 30_000_000})
			}
		}
	}
	profileGolden.suiteRan()
}
