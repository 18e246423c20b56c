// Command perfbench is the repository benchmark. One process runs one
// named workload against the SCHEMATIC toolchain for a fixed time,
// checks every output against an independent reference, and prints the
// result as one JSON object on the last line of standard output: the
// end-to-end metrics, or with -trace 1 the per-layer metrics of a run
// that also records spans around each layer's public functions.
//
//	bash perfbench/run.sh --workload paper --seed 1 --seconds 25 --trace 0
//	go run . -workload engine -seed 3 -seconds 25 -trace 1   # from perfbench/
//	go run . -compare -config ../BENCHMARK.json runsA runsB  # from perfbench/
//
// The workloads are paper, engine, verify and service; README.md says
// what each stresses, which metric each layer should move, and the
// bounds -compare applies.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// params is one run's configuration: the flags, plus workload sizes that
// tests shrink (see tiny in main_test.go).
type params struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	outdir   string
	workers  int

	// minReps is how many passes run even when the budget is spent; with
	// -trace 1 it must be at least 2, one untraced pass and one traced.
	minReps int

	paperProfileRuns int

	engineBenches     []string // nil = the whole suite
	engineProfileRuns int

	verifyBenches []string

	serviceBenches []string

	// corrupt flips the first output the run checks, so tests can show a
	// wrong answer fails the run.
	corrupt  bool
	tampered atomic.Bool
}

func defaultParams() *params {
	return &params{
		seed:              1,
		seconds:           25 * time.Second,
		workers:           runtime.NumCPU(),
		minReps:           2,
		paperProfileRuns:  50,
		engineProfileRuns: 10,
		verifyBenches:     []string{"crc", "randmath", "stringsearch"},
		serviceBenches:    []string{"crc", "randmath", "stringsearch", "basicmath", "sha"},
	}
}

// tamper reports true exactly once when the run is asked to corrupt an
// output; the caller then perturbs the output it is about to check.
func (p *params) tamper() bool {
	return p.corrupt && p.tampered.CompareAndSwap(false, true)
}

// outcome is what a workload measured. Times are per repetition; the
// metrics derived from them are computed in one place (metricsOf). The
// i-th entry of slow, setups, jobs and opTimes all belong to the i-th
// untraced pass.
type outcome struct {
	kernel    []time.Duration // each timing of the calibration kernel
	slow      []float64       // each untraced pass's slowdown (see repeat)
	setups    []time.Duration // each set-up the run performed
	jobs      []time.Duration // each untraced repetition of the fixed job
	traced    []time.Duration // each traced repetition of the same job
	attempted int

	// ops_per_s is opsPerPass over the mean of opTimes, or of jobs when
	// opTimes is nil.
	opsPerPass int
	opTimes    []time.Duration

	mu       sync.Mutex        // guards the fields below, which goroutines report into
	ops      map[string]opTime // each operation's latency samples over the run
	failed   int
	failures []string // the first few, for the log

	peakRSS float64 // MB, after set-up and the first repetition; 0 = at the end

	acct   accounting         // traced passes only
	counts map[string]float64 // per-layer counts, from the last traced pass
	notes  map[string]any     // extra detail for the info line
}

func (o *outcome) fail(format string, args ...any) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.failed++
	if len(o.failures) < 10 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// opTime sums the latency samples of one operation, and names the
// benchmark program it ran.
type opTime struct {
	bench string
	ms    float64
	n     int
}

// op records one latency sample of the operation named key. An
// operation that repeats (the same cell, run, case or request in another
// repetition) is reported as the mean of its samples, for the reason
// metricsOf gives.
func (o *outcome) op(key, bench string, d time.Duration) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.ops == nil {
		o.ops = map[string]opTime{}
	}
	t := o.ops[key]
	o.ops[key] = opTime{bench, t.ms + ms(d), t.n + 1}
}

// latencies returns every operation's mean latency, and the median per
// benchmark program.
func (o *outcome) latencies() ([]float64, map[string]float64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	all := make([]float64, 0, len(o.ops))
	byBench := map[string][]float64{}
	for _, t := range o.ops {
		all = append(all, t.ms/float64(t.n))
		byBench[t.bench] = append(byBench[t.bench], t.ms/float64(t.n))
	}
	medians := map[string]float64{}
	for b, xs := range byBench {
		medians[b] = median(xs)
	}
	return all, medians
}

func (o *outcome) note(key string, v any) {
	if o.notes == nil {
		o.notes = map[string]any{}
	}
	o.notes[key] = v
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(context.Context, *params, *outcome) error{
	"paper":   runPaper,
	"engine":  runEngine,
	"verify":  runVerify,
	"service": runService,
}

// repeat runs pass until the measurement budget is spent. It runs at
// least p.minReps passes and starts another only when one more pass of
// the last pass's length still fits. In trace mode every other pass is
// traced, starting untraced.
//
// Before every untraced pass the calibration kernel is timed three
// times; their median over kernelRef is the pass's slowdown, by which
// the end-to-end times of that pass are divided (metricsOf). Interference
// on a shared machine comes in spells from a fraction of a second to
// minutes, and stretches the kernel and the pass next to it alike. A
// non-nil setup runs, and is timed, there too, so that set-ups sample the
// whole run as the passes do. Set-ups and passes start from a collected
// heap, so the peak resident set depends less on where a collection
// happened to fall. It is read after the first pass: later passes reuse
// what the first one grew, and how many of them fit depends on the
// machine's speed.
func (p *params) repeat(o *outcome, setup func() error, pass func(i int, traced bool) error) error {
	start := time.Now()
	var last time.Duration
	for i := 0; ; i++ {
		if i >= p.minReps && time.Since(start)+last > p.seconds {
			return nil
		}
		traced := p.trace && i%2 == 1
		t0 := time.Now()
		if !traced {
			var k []float64
			for j := 0; j < 3; j++ {
				d := calibrate()
				o.kernel = append(o.kernel, d)
				k = append(k, d.Seconds())
			}
			o.slow = append(o.slow, median(k)/kernelRef.Seconds())
		}
		if setup != nil && !traced {
			runtime.GC()
			s0 := time.Now()
			if err := setup(); err != nil {
				return err
			}
			o.setups = append(o.setups, time.Since(s0))
		}
		runtime.GC()
		if err := pass(i, traced); err != nil {
			return err
		}
		last = time.Since(t0)
		if i == 0 {
			o.peakRSS = peakRSSMB()
		}
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metricDef struct{ name, unit string }

// endToEnd lists the end-to-end metrics and their units, as
// BENCHMARK.json declares them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"job_s", "s"},
	{"ops_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the per-layer metrics and their units, as
// BENCHMARK.json declares them. A traced run of any workload reports all
// of them; a layer the workload does not exercise reads 0.
var perLayer = func() []metricDef {
	var out []metricDef
	for _, l := range layerNames {
		out = append(out, metricDef{l + ".self_pct", "%"})
	}
	return append(out, []metricDef{
		{"unattributed_pct", "%"},
		{"idle_pct", "%"},
		{"trace_overhead_pct", "%"},
		{"spans", "count"},
		{"trace.runs", "count"},
		{"emulator.steps", "count"},
		{"emulator.power_failures", "count"},
		{"emulator.exhaustion.minstr_per_s", "Minstr/s"},
		{"emulator.harvested.minstr_per_s", "Minstr/s"},
		{"emulator.observed.minstr_per_s", "Minstr/s"},
		{"cells.completed", "count"},
		{"cells.correct", "count"},
		{"baselines.declined_ratio", "ratio"},
		{"verify.states", "count"},
		{"verify.edges", "count"},
		{"verify.dedup_ratio", "ratio"},
		{"verify.states_per_s", "1/s"},
		{"crashtest.skips", "count"},
		{"server.cache.hit_ratio", "ratio"},
		{"server.store.hits", "count"},
		{"server.store.puts", "count"},
		{"server.queue.rejected", "count"},
		{"op_p50_ms", "ms"},
	}...)
}()

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func msOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// jobSeconds is the mean of the untraced repetitions of the job, as
// measured.
func (o *outcome) jobSeconds() float64 { return mean(seconds(o.jobs)) }

// atRef returns each untraced pass's time, in seconds, at the reference
// speed: divided by the slowdown measured just before that pass.
func (o *outcome) atRef(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds() / o.slow[i]
	}
	return out
}

// metricsOf derives the reported metrics from an outcome: the median
// set-up and the mean repetition, both at the reference speed, and for
// operation latency the geometric mean over benchmark programs of each
// one's median.
//
// The mean repetition, not the fastest: on a machine shared with other
// tenants a repetition runs either at full speed or up to twice as slow,
// and the fastest of a few flips between the two from run to run. The
// programs' latencies differ by an order of magnitude, so a median over
// all of them would land on the edge between two programs and jump
// between them from run to run. README.md, "Measured spread", has the
// numbers.
func metricsOf(p *params, o *outcome) map[string]metric {
	out := map[string]metric{}
	if !p.trace {
		opTimes := o.opTimes
		if opTimes == nil {
			opTimes = o.jobs
		}
		vals := map[string]float64{
			"setup_s":     median(o.atRef(o.setups)),
			"job_s":       mean(o.atRef(o.jobs)),
			"ops_per_s":   float64(o.opsPerPass) / mean(o.atRef(opTimes)),
			"peak_rss_mb": o.peakRSS,
		}
		for _, m := range endToEnd {
			out[m.name] = metric{vals[m.name], m.unit}
		}
		return out
	}
	vals := o.acct.shares()
	_, medians := o.latencies()
	vals["op_p50_ms"] = geomean(medians)
	if o.acct.passes > 0 {
		vals["spans"] = float64(o.acct.spans / o.acct.passes) // per traced pass
	}
	if len(o.jobs) > 0 && len(o.traced) > 0 {
		base := o.jobSeconds()
		vals["trace_overhead_pct"] = 100 * (mean(seconds(o.traced)) - base) / base
	}
	for k, v := range o.counts {
		vals[k] = v
	}
	for _, m := range perLayer {
		out[m.name] = metric{vals[m.name], m.unit}
	}
	return out
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil))
}

// run is main with its streams and workload sizes injectable; tune, when
// non-nil, adjusts the parameters after flag parsing. It returns the
// exit code.
func run(args []string, stdout, stderr io.Writer, tune func(*params)) int {
	p := defaultParams()
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&p.workload, "workload", "", "workload to run: paper, engine, verify or service")
	fs.Int64Var(&p.seed, "seed", p.seed, "seed for the generated inputs and request population")
	secs := fs.Int("seconds", int(p.seconds/time.Second), "measurement budget in seconds")
	traceFlag := fs.Int("trace", 0, "1: also run traced passes and report per-layer metrics")
	fs.StringVar(&p.outdir, "outdir", "", "directory for the service's disk stores (default: system temp) and, with -trace 1, the span NDJSON")
	compare := fs.Bool("compare", false, "compare two directories of saved run outputs: -compare A B")
	config := fs.String("config", "BENCHMARK.json", "benchmark definition read by -compare for the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "perfbench: -compare needs two directories")
			return 2
		}
		return compareDirs(*config, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	drive, ok := workloads[p.workload]
	if !ok || *secs < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload %s, -seconds >= 1 and -trace 0 or 1\n", strings.Join(workloadNames(), "|"))
		return 2
	}
	p.seconds = time.Duration(*secs) * time.Second
	p.trace = *traceFlag == 1
	if tune != nil {
		tune(p)
	}

	o := &outcome{}
	err := drive(context.Background(), p, o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", p.workload, err)
		return 1
	}
	if o.peakRSS == 0 {
		o.peakRSS = peakRSSMB()
	}
	for _, f := range o.failures {
		fmt.Fprintf(stderr, "perfbench: %s: wrong: %s\n", p.workload, f)
	}
	if p.trace && p.outdir != "" {
		path := filepath.Join(p.outdir, fmt.Sprintf("spans-%s-%d.ndjson", p.workload, p.seed))
		if err := writeNDJSON(path, o.acct.all); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}

	all, medians := o.latencies()
	info := map[string]any{
		"workload":           p.workload,
		"seed":               p.seed,
		"seconds":            *secs,
		"trace":              *traceFlag,
		"num_cpu":            runtime.NumCPU(),
		"gomaxprocs":         runtime.GOMAXPROCS(0),
		"go_version":         runtime.Version(),
		"jobs_s":             seconds(o.jobs),
		"setups_s":           seconds(o.setups),
		"kernel_ms":          msOf(o.kernel),
		"slowdown":           o.slow,
		"op_dist":            distOf(all),
		"op_p50_ms_by_bench": medians,
	}
	for k, v := range o.notes {
		info[k] = v
	}
	res := result{
		Correct:   o.failed == 0 && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   metricsOf(p, o),
	}
	enc := json.NewEncoder(stdout)
	if err := errors.Join(enc.Encode(info), enc.Encode(res)); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
