package bench

import (
	"context"
	"fmt"
	"io"
	"sort"

	"schematic/internal/baselines"
	schematic "schematic/internal/core"
	"schematic/internal/ir"
)

// Variant is a configuration variant of the SCHEMATIC pass used by the
// ablation study: the full pass, each design choice disabled in turn, and
// the §VII register-liveness extension.
type Variant struct {
	Label  string
	Adjust func(*schematic.Config)
}

// Name implements baselines.Technique.
func (v Variant) Name() string { return v.Label }

// SupportsVM implements baselines.Technique.
func (Variant) SupportsVM(*ir.Module, int) bool { return true }

// Apply implements baselines.Technique.
func (v Variant) Apply(m *ir.Module, p baselines.Params) error {
	conf := schematic.Config{
		Model:   p.Model,
		Budget:  p.Budget,
		VMSize:  p.VMSize,
		Profile: p.Profile,
	}
	if v.Adjust != nil {
		v.Adjust(&conf)
	}
	_, err := schematic.Apply(m, conf)
	return err
}

// noVM disables VM allocation: every variable stays in NVM.
func noVM(c *schematic.Config) { c.DisableVM = true }

// Variants returns the ablation variants in presentation order.
func Variants() []Variant {
	return []Variant{
		{Label: "Schematic", Adjust: nil},
		{Label: "NoCondCk", Adjust: func(c *schematic.Config) {
			c.DisableCondCheckpoints = true
		}},
		{Label: "NoLiveness", Adjust: func(c *schematic.Config) {
			c.DisableLivenessRefinement = true
		}},
		{Label: "NoVM", Adjust: noVM},
		{Label: "RefinedRegs", Adjust: func(c *schematic.Config) {
			c.RefineRegisterLiveness = true
		}},
	}
}

// Ablations runs every variant on every benchmark at one TBPF, indexed
// [bench][variant]. This is the design-choice study DESIGN.md calls out:
// each row quantifies what one mechanism of the paper contributes. Cells
// run on the harness worker pool.
func (h *Harness) Ablations(ctx context.Context, tbpf int64) (map[string]map[string]*TechRun, error) {
	bms, err := All()
	if err != nil {
		return nil, err
	}
	var cells []Cell
	for _, b := range bms {
		for _, v := range Variants() {
			cells = append(cells, Cell{Bench: b, Tech: v, TBPF: tbpf})
		}
	}
	results, err := h.RunGrid(ctx, "ablations", cells)
	if err != nil {
		return nil, err
	}
	out := map[string]map[string]*TechRun{}
	for _, b := range bms {
		out[b.Name] = map[string]*TechRun{}
	}
	for i, cell := range cells {
		out[cell.Bench.Name][cell.Tech.Name()] = results[i]
	}
	return out, nil
}

// RenderAblations prints the ablation study: per benchmark and variant,
// the total consumed energy normalized to the full pass, plus the number
// of checkpoint saves.
func RenderAblations(w io.Writer, abl map[string]map[string]*TechRun, tbpf int64) {
	fmt.Fprintf(w, "Ablation study — energy relative to full SCHEMATIC (TBPF=%d)\n", tbpf)
	vs := Variants()
	fmt.Fprintf(w, "%-14s", "bench")
	for _, v := range vs {
		fmt.Fprintf(w, "%14s", v.Label)
	}
	fmt.Fprintln(w)

	var names []string
	for n := range abl {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		base := abl[n]["Schematic"]
		if base == nil || !base.Completed() {
			fmt.Fprintf(w, "%-14s  (baseline did not complete)\n", n)
			continue
		}
		fmt.Fprintf(w, "%-14s", n)
		for _, v := range vs {
			tr := abl[n][v.Label]
			if tr == nil || !tr.Completed() {
				fmt.Fprintf(w, "%14s", "✗")
				continue
			}
			rel := tr.Res.Energy.Total() / base.Res.Energy.Total()
			fmt.Fprintf(w, "  %5.2fx %5dsv", rel, tr.Res.Saves)
		}
		fmt.Fprintln(w)
	}
}
