package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// The paper golden: what `paper -all -seed 1 -vmsize 2048 -profile-runs
// 10` prints, followed by every grid cell's record without its timings,
// one JSON line each, sorted. Floats round-trip exactly through
// encoding/json, so a line pins each energy sum to the bit. It freezes
// the whole pipeline at once (profiling, placement, emulation and the
// rendering), so a change meant to keep every result bit-identical can
// show that it did. Regenerate it (-update) only when a change
// deliberately alters a result; see TESTING.md.
var paperGolden = &goldenCorpus{path: "testdata/paper_golden.txt", suites: 1}

// paperAll runs cmd/paper's -all sequence, section by section in its
// order and with its blank line after each, and returns what it printed
// followed by the sorted cell records.
func paperAll(t *testing.T) string {
	t.Helper()
	ctx := context.Background()
	h := NewHarness()
	h.ProfileRuns, h.VMSize, h.Seed = 10, 2048, 1
	report := h.StartReport()
	check := func(name string, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	var out bytes.Buffer
	t1, err := h.Table1(ctx)
	check("Table I", err)
	RenderTable1(&out, t1)
	out.WriteString("\n")
	rows, err := h.Table2(ctx)
	check("Table II", err)
	RenderTable2(&out, rows)
	out.WriteString("\n")
	t3, err := h.Table3(ctx)
	check("Table III", err)
	RenderTable3(&out, t3)
	out.WriteString("\n")
	fig6, err := h.Figure6(ctx, Fig6TBPF)
	check("Figure 6", err)
	RenderFigure6(&out, fig6, Fig6TBPF)
	out.WriteString("\n")
	fig7, err := h.Figure7(ctx, Fig6TBPF)
	check("Figure 7", err)
	RenderFigure7(&out, fig7, Fig6TBPF)
	out.WriteString("\n")
	fig8, err := h.Figure8(ctx, "crc")
	check("Figure 8", err)
	RenderFigure8(&out, fig8, "crc")
	out.WriteString("\n")
	RenderHeadline(&out, ComputeHeadline(fig6))
	out.WriteString("\n")
	abl, err := h.Ablations(ctx, Fig6TBPF)
	check("Ablations", err)
	RenderAblations(&out, abl, Fig6TBPF)
	out.WriteString("\n")

	var cells []string
	for _, rec := range report.Records() {
		rec.WallMS, rec.ProfileMS, rec.ApplyMS, rec.EmulateMS = 0, 0, 0, 0
		line, err := json.Marshal(rec)
		if err != nil {
			t.Fatalf("encode %s/%s/%s: %v", rec.Experiment, rec.Bench, rec.Technique, err)
		}
		cells = append(cells, string(line))
	}
	sort.Strings(cells)
	return out.String() + strings.Join(cells, "\n") + "\n"
}

// TestPaperGolden requires paperAll to reproduce
// testdata/paper_golden.txt byte for byte.
func TestPaperGolden(t *testing.T) {
	got := paperAll(t)
	if *update {
		paperGolden.updated = strings.Split(strings.TrimSuffix(got, "\n"), "\n")
		paperGolden.suiteRan()
		return
	}
	want, err := os.ReadFile(paperGolden.path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gotLines := strings.Split(got, "\n")
	wantLines := strings.Split(string(want), "\n")
	for i := range min(len(gotLines), len(wantLines)) {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("line %d diverges from %s:\ngot:  %s\nwant: %s", i+1, paperGolden.path, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("%d lines, %s has %d", len(gotLines), paperGolden.path, len(wantLines))
}
