package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchDef is the part of BENCHMARK.json -compare reads.
type benchDef struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// savedRun is one saved benchmark output: its info line and result line.
type savedRun struct {
	workload string
	seed     int64
	trace    bool
	metrics  map[string]metric
}

// loadRuns reads every regular file in dir as the standard output of one
// benchmark run.
func loadRuns(dir string) ([]savedRun, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var runs []savedRun
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		path := filepath.Join(dir, e.Name())
		r, err := parseRun(path)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		runs = append(runs, r)
	}
	return runs, nil
}

func parseRun(path string) (savedRun, error) {
	var r savedRun
	f, err := os.Open(path)
	if err != nil {
		return r, err
	}
	defer f.Close()
	var last string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		last = line
		var info struct {
			Workload string `json:"workload"`
			Seed     int64  `json:"seed"`
			Trace    int    `json:"trace"`
		}
		if r.workload == "" && json.Unmarshal([]byte(line), &info) == nil && info.Workload != "" {
			r.workload, r.seed, r.trace = info.Workload, info.Seed, info.Trace == 1
		}
	}
	if err := sc.Err(); err != nil {
		return r, err
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil || res.Metrics == nil {
		return r, fmt.Errorf("last line is not a benchmark result")
	}
	if r.workload == "" {
		return r, fmt.Errorf("no info line naming the workload")
	}
	r.metrics = res.Metrics
	return r, nil
}

// values collects one metric over the untraced (or traced) runs of a
// workload.
func values(runs []savedRun, workload, name string, traced bool) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.metrics[name]; ok && r.workload == workload && r.trace == traced {
			out = append(out, m.Value)
		}
	}
	return out
}

// floors are absolute changes, in the metric's unit, too small to count
// as a regression whatever the spread: a set-up that gets slower by at
// most a tenth of a second goes unnoticed by a user, while the set-ups of
// three workloads last under a tenth of a second, so that a few
// milliseconds of interference are a large share of them.
// BENCHMARK.json has no field for a floor.
var floors = map[string]float64{"setup_s": 0.1}

// verdict applies the no-regression rule to parent runs a and change
// runs b: the change's median may be worse than the parent's by at most
// the bound, or by at most floor in absolute terms; when either side's
// quartile spread exceeds the bound the comparison is unresolved, unless
// every change run beats every parent run.
func verdict(a, b []float64, better string, bound, floor float64) string {
	if len(a) == 0 || len(b) == 0 {
		return "missing"
	}
	q1a, ma, q3a := quartiles(a)
	q1b, mb, q3b := quartiles(b)
	worse := mb - ma // change in the bad direction
	allBetter := maxOf(b) < minOf(a)
	if better == "higher" {
		worse = ma - mb
		allBetter = minOf(b) > maxOf(a)
	}
	spread := max((q3a-q1a)/ma, (q3b-q1b)/mb)
	switch {
	case allBetter, floor > 0 && worse <= floor:
		return "within bound"
	case spread > bound:
		return "unresolved"
	case worse/ma > bound:
		return "worse"
	}
	return "within bound"
}

// compareDirs prints, per workload and end-to-end metric, the median and
// quartiles of each result set and the verdict, then whether the
// per-layer counts repeat exactly for each seed. It exits 1 when a metric got worse.
func compareDirs(config, dirA, dirB string, stdout, stderr io.Writer) int {
	raw, err := os.ReadFile(config)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	var def benchDef
	if err := json.Unmarshal(raw, &def); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", config, err)
		return 2
	}
	runsA, err := loadRuns(dirA)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	runsB, err := loadRuns(dirB)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	names := map[string]bool{}
	for _, r := range append(append([]savedRun(nil), runsA...), runsB...) {
		names[r.workload] = true
	}
	var workloads []string
	for w := range names {
		workloads = append(workloads, w)
	}
	sort.Strings(workloads)

	code := 0
	fmt.Fprintf(stdout, "%-8s %-12s %8s %10s %-23s %10s %-23s %s\n",
		"workload", "metric", "bound", "A median", "A [q1, q3]", "B median", "B [q1, q3]", "verdict")
	for _, w := range workloads {
		for _, m := range def.EndToEnd {
			va, vb := values(runsA, w, m.Name, false), values(runsB, w, m.Name, false)
			v := verdict(va, vb, m.Better, m.Bound, floors[m.Name])
			if v == "worse" {
				code = 1
			}
			fmt.Fprintf(stdout, "%-8s %-12s %7.0f%% %10.4g %-23s %10.4g %-23s %s\n",
				w, m.Name, 100*m.Bound, median(va), iqr(va), median(vb), iqr(vb), v)
		}
		var differ []string
		for _, m := range def.PerLayer {
			if m.Unit == "count" && !countsRepeat(append(append([]savedRun(nil), runsA...), runsB...), w, m.Name) {
				differ = append(differ, m.Name)
			}
		}
		if len(differ) == 0 {
			fmt.Fprintf(stdout, "%-8s per-layer counts identical across traced runs of each seed\n", w)
		} else {
			fmt.Fprintf(stdout, "%-8s per-layer counts that differ: %s\n", w, strings.Join(differ, ", "))
		}
	}
	return code
}

// countsRepeat reports whether a count reads the same in every traced
// run of the workload with the same seed.
func countsRepeat(runs []savedRun, workload, name string) bool {
	bySeed := map[int64]float64{}
	for _, r := range runs {
		m, ok := r.metrics[name]
		if !ok || r.workload != workload || !r.trace {
			continue
		}
		if v, seen := bySeed[r.seed]; seen && v != m.Value {
			return false
		}
		bySeed[r.seed] = m.Value
	}
	return true
}

func iqr(xs []float64) string {
	if len(xs) == 0 {
		return "-"
	}
	q1, _, q3 := quartiles(xs)
	return fmt.Sprintf("[%.4g, %.4g]", q1, q3)
}
