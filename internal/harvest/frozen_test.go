package harvest

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"schematic/internal/bench"
	"schematic/internal/emulator"
)

var update = flag.Bool("update", false, "rewrite the frozen traces under testdata from the current engine")

// frozenTraces are runs whose recorded traces and Results are committed
// under testdata/. They pin what a trace file means on disk: the
// numbering of charge@N (the run's 1-based draw ordinal, refused draws
// included), of samples, and of step and save points. Every case
// replays its file to its Result and re-records its file byte for byte.
var frozenTraces = []struct {
	name, bench, tech string
	sched             func(eb float64) emulator.PowerSchedule
}{
	// Solar nights outlast the capacitor, so draws are refused.
	{"crc-ratchet-solar", "crc", "Ratchet", frozenSolar},
	{"crc-schematic-solar", "crc", "Schematic", frozenSolar},
	// Step and torn-save injections over exhaustion's own refusals.
	{"crc-ratchet-inject", "crc", "Ratchet", func(float64) emulator.PowerSchedule {
		return emulator.Schedules(emulator.Exhaustion(), emulator.TraceSchedule(
			emulator.FailPoint{Kind: emulator.PointStep, N: 5000},
			emulator.FailPoint{Kind: emulator.PointMidSave, N: 3},
		))
	}},
}

func frozenSolar(eb float64) emulator.PowerSchedule {
	return Capacitor{Env: Solar{Seed: 9, Period: 20_000, Day: 0.2}, Capacity: eb}.Schedule()
}

// TestFrozenTraces replays each committed trace and requires the Result
// recorded with it, then re-records the run and requires the committed
// file byte for byte. Never regenerate these files to make a replay or
// recorder change pass: they were recorded before the emulator numbered
// charge ordinals itself, and a changed byte means the format moved.
func TestFrozenTraces(t *testing.T) {
	h := bench.NewHarness()
	h.ProfileRuns = 3
	for _, c := range frozenTraces {
		t.Run(c.name, func(t *testing.T) {
			bm, err := bench.ByName(c.bench)
			if err != nil {
				t.Fatal(err)
			}
			m, eb, inputs := placedWith(t, h, bm, c.tech)
			if m == nil {
				t.Fatalf("%s declines %s", c.tech, c.bench)
			}
			sched := c.sched(eb)
			rec := NewRecorder(sched, eb)
			rec.SampleEvery = 1000
			recorded := runCfg(t, m, eb, inputs, sched, rec)
			var buf bytes.Buffer
			if err := rec.Trace().Write(&buf); err != nil {
				t.Fatal(err)
			}
			result, err := json.Marshal(recorded)
			if err != nil {
				t.Fatal(err)
			}
			tracePath := filepath.Join("testdata", c.name+".trace.ndjson")
			resultPath := filepath.Join("testdata", c.name+".result.json")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(tracePath, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(resultPath, append(result, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			wantTrace, err := os.ReadFile(tracePath)
			if err != nil {
				t.Fatal(err)
			}
			wantResult, err := os.ReadFile(resultPath)
			if err != nil {
				t.Fatal(err)
			}
			wantResult = bytes.TrimSuffix(wantResult, []byte("\n"))

			tr, err := ReadTrace(bytes.NewReader(wantTrace))
			if err != nil {
				t.Fatal(err)
			}
			replayed, err := json.Marshal(runCfg(t, m, eb, inputs, tr.Schedule(), nil))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(replayed, wantResult) {
				t.Errorf("replaying %s diverges from its Result:\nwant %s\ngot  %s", tracePath, wantResult, replayed)
			}
			if !bytes.Equal(result, wantResult) {
				t.Errorf("re-recorded Result diverges from %s:\nwant %s\ngot  %s", resultPath, wantResult, result)
			}
			if !bytes.Equal(buf.Bytes(), wantTrace) {
				t.Errorf("re-recorded trace differs from %s", tracePath)
			}
		})
	}
}
