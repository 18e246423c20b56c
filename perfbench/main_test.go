package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// tiny shrinks every workload so the whole suite runs in seconds.
func tiny(p *params) {
	p.seconds = time.Second
	p.minReps = 1
	if p.trace {
		p.minReps = 2
	}
	p.paperProfileRuns = 2
	p.engineBenches = []string{"crc", "randmath"}
	p.engineProfileRuns = 2
	p.verifyBenches = []string{"randmath"}
	p.serviceBenches = []string{"crc", "randmath"}
}

type declared struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadDeclared(t *testing.T) declared {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// runTiny runs one workload at tiny size and returns the exit code and
// the parsed result line.
func runTiny(t *testing.T, workload, trace string, corrupt bool) (int, result) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run([]string{"-workload", workload, "-seed", "3", "-seconds", "1", "-trace", trace, "-outdir", t.TempDir()},
		&stdout, &stderr, func(p *params) {
			tiny(p)
			p.corrupt = corrupt
		})
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line %q: %v\nstderr:\n%s", workload, lines[len(lines)-1], err, stderr.String())
	}
	return code, res
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	d := loadDeclared(t)
	for _, w := range workloadNames() {
		for _, mode := range []struct {
			trace string
			want  []struct{ Name, Unit string }
		}{{"0", d.EndToEnd}, {"1", d.PerLayer}} {
			code, res := runTiny(t, w, mode.trace, false)
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%s: exit %d, result %+v", w, mode.trace, code, res)
			}
			if len(res.Metrics) != len(mode.want) {
				t.Errorf("%s trace=%s: %d metrics, BENCHMARK.json declares %d", w, mode.trace, len(res.Metrics), len(mode.want))
			}
			for _, m := range mode.want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !metricName.MatchString(m.Name):
					t.Errorf("metric name %q does not match %s", m.Name, metricName)
				case !ok:
					t.Errorf("%s trace=%s: metric %s missing", w, mode.trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%s: %s unit %q, declared %q", w, mode.trace, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%s: %s = %v", w, mode.trace, m.Name, got.Value)
				case mode.trace == "0" && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, m.Name, got.Value)
				}
			}
		}
	}
}

func TestCorruptOutputFails(t *testing.T) {
	for _, w := range workloadNames() {
		code, res := runTiny(t, w, "0", true)
		if code == 0 || res.Correct || res.Failed == 0 {
			t.Errorf("%s: a corrupted output gave exit %d, correct=%v, failed=%d", w, code, res.Correct, res.Failed)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([...], n=4) on the same data.
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
		{[]float64{10, 20}, 7.5, 15, 22.5},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestDistTailHasTenBeyond(t *testing.T) {
	var xs []float64
	for i := 1; i <= 1000; i++ {
		xs = append(xs, float64(i))
	}
	d := distOf(xs)
	if d.N != 1000 || d.Tail != 990 || d.TailPct != 99 || d.P50 != 500.5 {
		t.Errorf("distOf(1..1000) = %+v, want tail 990 at p99 and median 500.5", d)
	}
	if d := distOf(xs[:15]); d.Tail != 8 {
		t.Errorf("distOf(1..15).Tail = %v, want the median 8", d.Tail)
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 70}, // overlaps a
		{ID: 4, Parent: 2, Name: "c", Start: 20, End: 30},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{"root": 40, "a": 30, "b": 40, "c": 10}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self[%s] = %v, want %v", k, got[k], v)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	save := func(dir string, i int, job, setup float64) {
		res, err := json.Marshal(result{Correct: true, Attempted: 1, Metrics: map[string]metric{
			"job_s": {job, "s"}, "setup_s": {setup, "s"},
		}})
		if err != nil {
			t.Fatal(err)
		}
		out := `{"workload":"paper","seed":1,"trace":0}` + "\n" + string(res) + "\n"
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("run%d.out", i)), []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		// job_s 20% slower; setup_s 80% slower and spread by 40%, but
		// only 0.04 s slower, under the floor.
		save(dirA, i, 10+0.01*float64(i), 0.05+0.01*float64(i%3))
		save(dirB, i, 12+0.01*float64(i), 0.09+0.01*float64(i%3))
	}
	config := filepath.Join(t.TempDir(), "BENCHMARK.json")
	def := `{"end_to_end":[{"name":"job_s","unit":"s","better":"lower","bound":0.1},
		{"name":"setup_s","unit":"s","better":"lower","bound":0.25}],"per_layer":[]}`
	if err := os.WriteFile(config, []byte(def), 0o644); err != nil {
		t.Fatal(err)
	}
	verdicts := func(out string) map[string]string {
		v := map[string]string{}
		for _, line := range strings.Split(out, "\n") {
			for _, m := range []string{"job_s", "setup_s"} {
				if f := strings.Fields(line); len(f) > 1 && f[1] == m {
					v[m] = line
				}
			}
		}
		return v
	}
	var out, errs bytes.Buffer
	code := compareDirs(config, dirA, dirB, &out, &errs)
	v := verdicts(out.String())
	if code != 1 || !strings.HasSuffix(v["job_s"], "worse") || !strings.HasSuffix(v["setup_s"], "within bound") {
		t.Errorf("job 20%% slower with a 10%% bound, set-up 0.04 s slower: exit %d, output\n%s%s", code, out.String(), errs.String())
	}
	out.Reset()
	code = compareDirs(config, dirB, dirA, &out, &errs)
	v = verdicts(out.String())
	if code != 0 || !strings.HasSuffix(v["job_s"], "within bound") || !strings.HasSuffix(v["setup_s"], "within bound") {
		t.Errorf("20%% faster: exit %d, output\n%s%s", code, out.String(), errs.String())
	}
}
