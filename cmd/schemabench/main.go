// Command schemabench measures the toolchain's end-to-end performance
// and writes a machine-readable BENCH_*.json report:
//
//   - grid: emulation throughput (Minstr/s) over the benchmark x
//     technique evaluation grid under intermittent power, on the batched
//     dispatch path and on the stepped path (the same grid with a no-op
//     Observer, which steps every instruction), with speedups against
//     the stepped path and against the recorded pre-compiled-dispatch
//     baseline.
//
//   - emulate: end-to-end service latency (p50/p99) of POST /v1/emulate
//     against an in-process schematicd, with per-request seeds so the
//     content-addressed cache cannot short-circuit the pipeline.
//
//   - grid_service: POST /v1/grid wall-clock for a small matrix, cold
//     vs warm (in-memory cache) vs store-warm (fresh daemon on the same
//     -store directory) — the restart-survival dividend. The harness
//     fails outright if a warm or store-warm grid recomputes any cell.
//
//   - loadtest: the internal/loadtest generator's closed-loop mixed
//     workload against an in-process daemon with a disk store:
//     p50/p99/throughput and the run's cache hit rate.
//
//   - crashtest: crash-consistency hunter throughput in cases/second.
//
//   - harvest: what a harvested-energy schedule (internal/harvest
//     capacitor over solar/RF/duty waveforms) costs the emulator
//     relative to the built-in exhaustion physics on the same placed
//     cells — the price of the capacitor integration, which a batch
//     redoes per straight-line run — with a record-to-replay integrity
//     check on the NDJSON power trace.
//
//   - verify: bounded model checker (internal/verify) throughput over
//     the exhaustively-checkable subset (crc, randmath): persistent
//     states and edges per second, the hash-dedup hit rate, and the
//     exhaustive-vs-sampling wall-clock ratio against the hunter on the
//     same cases — the price of a proof relative to a probe.
//
//   - sse: live-console overhead. Two views, because they answer
//     different questions. The publish_ns_* figures are the emulator
//     hot path's per-event cost of hub fan-out with 0/1/16 actively
//     draining subscribers — the "can a slow reader stall the
//     emulator" metric, and the basis of one_sub_hotpath_overhead_pct
//     (publisher-side overhead relative to the per-event emulate
//     budget). The observed_p50_ms_* figures are end-to-end POST
//     latencies with live SSE subscribers attached; on few-CPU hosts
//     (see cpus) these also charge the subscribers' own JSON-render
//     time against the run, which is core sharing, not fan-out stall.
//     Replay throughput of a retained stream rounds out the cell. The
//     unobserved no-subscriber baseline is the emulate section above.
//
//     schemabench                      # full run, report to stdout
//     schemabench -o BENCH_010.json    # write the report to a file
//     schemabench -smoke               # small grid, seconds not minutes
//     schemabench -smoke -check BENCH_010.json  # regression gate for CI
//
// -check compares the measured grid throughput against the committed
// report and exits nonzero on a >20% regression of the compiled engine.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"schematic/internal/baselines"
	"schematic/internal/bench"
	"schematic/internal/crashtest"
	"schematic/internal/emulator"
	"schematic/internal/harvest"
	"schematic/internal/ir"
	"schematic/internal/loadtest"
	"schematic/internal/obs"
	"schematic/internal/server"
	"schematic/internal/store"
	"schematic/internal/verify"
)

type gridReport struct {
	Cells            int     `json:"cells"`
	TBPF             int64   `json:"tbpf"`
	Iters            int     `json:"iters"`
	StepsPerIter     int64   `json:"steps_per_iter"`
	CompiledMips     float64 `json:"compiled_minstr_per_sec"`
	SteppedMips      float64 `json:"stepped_minstr_per_sec"`
	SpeedupVsStepped float64 `json:"speedup_vs_stepped"`
}

type emulateReport struct {
	Requests int     `json:"requests"`
	P50MS    float64 `json:"p50_ms"`
	P99MS    float64 `json:"p99_ms"`
}

// gridServiceReport measures POST /v1/grid end to end: one cold
// submission that computes every cell, a warm repeat answered from the
// in-memory cache, and a store-warm repeat on a fresh server sharing
// the cold run's store directory — a daemon restart in miniature.
type gridServiceReport struct {
	Cells            int     `json:"cells"`
	ColdMS           float64 `json:"cold_ms"`
	WarmMS           float64 `json:"warm_ms"`
	StoreWarmMS      float64 `json:"store_warm_ms"`
	WarmSpeedup      float64 `json:"warm_speedup"`
	StoreWarmSpeedup float64 `json:"store_warm_speedup"`
}

// loadtestReport is the generator's closed-loop mixed workload against
// an in-process daemon backed by a disk store.
type loadtestReport struct {
	Requests      int     `json:"requests"`
	Concurrency   int     `json:"concurrency"`
	Errors        int     `json:"errors"`
	ThroughputRPS float64 `json:"throughput_rps"`
	P50MS         float64 `json:"p50_ms"`
	P99MS         float64 `json:"p99_ms"`
	CacheHitRate  float64 `json:"cache_hit_rate"`
	StorePuts     int64   `json:"store_puts"`
}

type crashReport struct {
	Cases       int     `json:"cases"`
	Seconds     float64 `json:"seconds"`
	CasesPerSec float64 `json:"cases_per_sec"`
}

// harvestReport compares emulation throughput under harvested-energy
// schedules against the built-in exhaustion physics on identical
// placed cells. Capacity = EB and Restart = 1 make every environment
// no harsher than exhaustion, so each harvested run must complete with
// output identical to its exhaustion twin — the cell doubles as a
// correctness check. OverheadPct is the per-instruction price of the
// capacitor integration, which a batch redoes per straight-line run.
type harvestReport struct {
	Environments    int     `json:"environments"`
	Cells           int     `json:"cells"`
	ExhaustionSteps int64   `json:"exhaustion_steps"`
	HarvestedSteps  int64   `json:"harvested_steps"`
	ExhaustionMips  float64 `json:"exhaustion_minstr_per_sec"`
	HarvestedMips   float64 `json:"harvested_minstr_per_sec"`
	OverheadPct     float64 `json:"schedule_overhead_pct"`
	TraceBytes      int     `json:"trace_bytes"`
	ReplayIdentical bool    `json:"replay_identical"`
}

type verifyReport struct {
	Cases    int `json:"cases"`
	Explored int `json:"explored"` // anytime cells actually model-checked
	// Totals across the explored cells.
	States int64 `json:"states"`
	Edges  int64 `json:"edges"`

	StatesPerSec float64 `json:"states_per_sec"`
	EdgesPerSec  float64 `json:"edges_per_sec"`
	// DedupHitRate is dedup hits / edges across the explored cells —
	// the fraction of injection points whose target state was already
	// visited (the acceptance bar is > 0.5).
	DedupHitRate float64 `json:"dedup_hit_rate"`

	// Wall-clock comparison on the identical case list: exhaustive
	// verification vs the sampling hunter. VsSampling > 1 is the price
	// of exhausting the state space instead of probing it.
	VerifySeconds   float64 `json:"verify_seconds"`
	SamplingSeconds float64 `json:"sampling_seconds"`
	VsSampling      float64 `json:"wallclock_vs_sampling"`
}

type sseReport struct {
	RequestsPerCell int `json:"requests_per_cell"`
	CPUs            int `json:"cpus"`

	// Publisher-side hub cost per event with K actively draining
	// subscribers — what fan-out adds to the emulator hot path. The
	// overhead percentage scales the 1-sub increment by the run's
	// per-event emulate budget (p50_0sub / events-per-run): the
	// emulate-throughput regression a subscriber can inflict by
	// existing, as opposed to by burning CPU rendering.
	PublishNS0Sub        float64 `json:"publish_ns_0sub"`
	PublishNS1Sub        float64 `json:"publish_ns_1sub"`
	PublishNS16Sub       float64 `json:"publish_ns_16sub"`
	OneSubHotpathPct     float64 `json:"one_sub_hotpath_overhead_pct"`
	SixteenSubHotpathPct float64 `json:"sixteen_sub_hotpath_overhead_pct"`

	// End-to-end p50 POST /v1/emulate latency of observed runs with K
	// live SSE readers. On few-CPU hosts this includes the readers'
	// own render time (core sharing), so it bounds the user-visible
	// cost, not the hot-path stall.
	P50MS0Sub          float64 `json:"observed_p50_ms_0sub"`
	P50MS1Sub          float64 `json:"observed_p50_ms_1sub"`
	P50MS16Sub         float64 `json:"observed_p50_ms_16sub"`
	OneSubDeltaPct     float64 `json:"one_sub_delta_pct"`
	SixteenSubDeltaPct float64 `json:"sixteen_sub_delta_pct"`

	// SSE replay of a retained run's ring, counted in event frames.
	ReplayEvents       int64   `json:"replay_events"`
	ReplayEventsPerSec float64 `json:"replay_events_per_sec"`
}

// hubPublishNS measures the emulator-side cost of one hub.Event with
// subs actively draining subscribers attached, in ns/event.
func hubPublishNS(subs, events int) float64 {
	h := obs.NewHub[emulator.Event](0, nil)
	var wg sync.WaitGroup
	for k := 0; k < subs; k++ {
		sub := h.Subscribe(-1, 1024)
		wg.Add(1)
		go func(sub *obs.Sub[emulator.Event]) {
			defer wg.Done()
			buf := make([]obs.Seq[emulator.Event], 512)
			for {
				n, open := sub.Next(buf)
				if n == 0 {
					if !open {
						return
					}
					<-sub.Ready()
				}
			}
		}(sub)
	}
	ev := emulator.Event{Kind: emulator.EvCharge, Class: emulator.ChargeCompute, Energy: 1}
	start := time.Now()
	for i := 0; i < events; i++ {
		h.Event(ev)
	}
	elapsed := time.Since(start)
	h.Close()
	wg.Wait()
	return float64(elapsed.Nanoseconds()) / float64(events)
}

type report struct {
	Version     int                `json:"version"`
	GeneratedBy string             `json:"generated_by"`
	Smoke       bool               `json:"smoke,omitempty"`
	Grid        *gridReport        `json:"grid,omitempty"`
	SmokeGrid   *gridReport        `json:"smoke_grid,omitempty"`
	Emulate     *emulateReport     `json:"emulate"`
	GridService *gridServiceReport `json:"grid_service"`
	Loadtest    *loadtestReport    `json:"loadtest"`
	Crashtest   *crashReport       `json:"crashtest"`
	Verify      *verifyReport      `json:"verify"`
	Harvest     *harvestReport     `json:"harvest"`
	SSE         *sseReport         `json:"sse"`
}

func main() {
	var (
		out   = flag.String("o", "", "write the JSON report to this file (default stdout)")
		smoke = flag.Bool("smoke", false, "small grid and request counts: seconds, not minutes")
		check = flag.String("check", "", "compare against this committed BENCH_*.json and fail on >20% grid regression")
	)
	flag.Parse()

	rep := &report{Version: 10, GeneratedBy: "cmd/schemabench", Smoke: *smoke}
	grid, err := measureGrid(*smoke)
	fail(err)
	if *smoke {
		rep.SmokeGrid = grid
	} else {
		rep.Grid = grid
		// Also record the smoke-sized grid so `schemabench -smoke -check`
		// has a like-for-like reference in the committed report.
		rep.SmokeGrid, err = measureGrid(true)
		fail(err)
	}
	rep.Emulate, err = measureEmulate(*smoke)
	fail(err)
	rep.GridService, err = measureGridService(*smoke)
	fail(err)
	rep.Loadtest, err = measureLoadtest(*smoke)
	fail(err)
	rep.Crashtest, err = measureCrashtest(*smoke)
	fail(err)
	rep.Verify, err = measureVerify(*smoke)
	fail(err)
	rep.Harvest, err = measureHarvest(*smoke)
	fail(err)
	rep.SSE, err = measureSSE(*smoke)
	fail(err)

	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	fail(enc.Encode(rep))
	if *out != "" {
		fail(os.WriteFile(*out, buf.Bytes(), 0o644))
		fmt.Fprintf(os.Stderr, "schemabench: wrote %s\n", *out)
	} else {
		os.Stdout.Write(buf.Bytes())
	}

	if *check != "" {
		err := checkRegression(*check, grid)
		// The smoke grid times ~1 ms of emulation; on a busy CI host a
		// single scheduling blip can halve the figure. A real regression
		// survives re-measurement, noise does not: re-measure up to
		// twice before failing the gate.
		for retries := 0; err != nil && retries < 2; retries++ {
			fmt.Fprintf(os.Stderr, "schemabench: %v — re-measuring\n", err)
			g, gerr := measureGrid(*smoke)
			fail(gerr)
			err = checkRegression(*check, g)
		}
		fail(err)
	}
}

// gridCells builds the evaluation grid: every benchmark under every
// technique that supports it at the given SVM, transformed for the EB
// derived from the TBPF.
type cell struct {
	mod    *ir.Module
	inputs map[string][]int64
	eb     float64
}

func gridCells(benches []*bench.Benchmark, tbpf int64, profileRuns int) ([]cell, error) {
	h := bench.NewHarness()
	h.ProfileRuns = profileRuns
	var cells []cell
	for _, b := range benches {
		m, err := b.Module()
		if err != nil {
			return nil, err
		}
		prof, err := h.Profile(context.Background(), b)
		if err != nil {
			return nil, err
		}
		eb := prof.EBForTBPF(tbpf)
		inputs, err := b.Inputs(h.Seed)
		if err != nil {
			return nil, err
		}
		for _, tech := range bench.Techniques() {
			if !tech.SupportsVM(m, h.VMSize) {
				continue
			}
			clone := ir.Clone(m)
			if err := tech.Apply(clone, baselines.Params{
				Model: h.Model, Budget: eb, VMSize: h.VMSize, Profile: prof,
			}); err != nil {
				continue // technique declines this program/budget
			}
			cells = append(cells, cell{mod: clone, inputs: inputs, eb: eb})
		}
	}
	return cells, nil
}

// measureGrid times the batched and the stepped path over the grid.
// Iteration 0 is a warmup (it populates the compiled-program cache and
// the allocator pools); only later iterations are timed. Both paths
// must execute the same step count — a divergence is a correctness bug,
// not a perf number.
func measureGrid(smoke bool) (*gridReport, error) {
	const tbpf = 100_000
	benches, err := bench.All() // full embedded suite, paper order plus extras
	if err != nil {
		return nil, err
	}
	iters, profileRuns := 2, 50
	if smoke {
		benches = nil
		for _, name := range []string{"crc", "randmath"} {
			b, err := bench.ByName(name)
			if err != nil {
				return nil, err
			}
			benches = append(benches, b)
		}
		iters, profileRuns = 1, 3
	}
	cells, err := gridCells(benches, tbpf, profileRuns)
	if err != nil {
		return nil, err
	}
	h := bench.NewHarness()

	run := func(observer emulator.Observer) (steps int64, emu time.Duration, err error) {
		for iter := 0; iter <= iters; iter++ {
			var iterSteps int64
			for i := range cells {
				c := &cells[i]
				start := time.Now()
				res, err := emulator.Run(c.mod, emulator.Config{
					Model: h.Model, VMSize: h.VMSize, Intermittent: true,
					EB: c.eb, Inputs: c.inputs, Observer: observer,
				})
				if err != nil {
					return 0, 0, err
				}
				if iter > 0 {
					iterSteps += res.Steps
					emu += time.Since(start)
				}
			}
			steps += iterSteps
		}
		return steps, emu, nil
	}

	compiledSteps, compiledDur, err := run(nil)
	if err != nil {
		return nil, err
	}
	steppedSteps, steppedDur, err := run(noopObserver{})
	if err != nil {
		return nil, err
	}
	if compiledSteps != steppedSteps {
		return nil, fmt.Errorf("schemabench: paths disagree on grid step count: batched %d, stepped %d",
			compiledSteps, steppedSteps)
	}
	g := &gridReport{
		Cells:        len(cells),
		TBPF:         tbpf,
		Iters:        iters,
		StepsPerIter: compiledSteps / int64(iters),
		CompiledMips: round2(float64(compiledSteps) / compiledDur.Seconds() / 1e6),
		SteppedMips:  round2(float64(steppedSteps) / steppedDur.Seconds() / 1e6),
	}
	g.SpeedupVsStepped = round2(g.CompiledMips / g.SteppedMips)
	return g, nil
}

// noopObserver discards every event; its presence steps every
// instruction.
type noopObserver struct{}

func (noopObserver) Event(emulator.Event) {}

// measureEmulate drives POST /v1/emulate on an in-process schematicd and
// reports request-latency percentiles. Every request uses a distinct
// input seed, so each one is a cache miss that runs the full
// compile-profile-place-emulate pipeline.
func measureEmulate(smoke bool) (*emulateReport, error) {
	n := 40
	if smoke {
		n = 10
	}
	s := server.New(server.Config{Workers: 1, Logf: nil})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Drain(ctx)
		s.Close()
	}()

	lat := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		body, err := json.Marshal(server.Request{
			Bench: "crc",
			Options: server.Options{
				Technique:   "schematic",
				ProfileRuns: 5,
				Seed:        int64(1000 + i), // distinct digest per request
			},
		})
		if err != nil {
			return nil, err
		}
		start := time.Now()
		resp, err := ts.Client().Post(ts.URL+"/v1/emulate", "application/json", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("schemabench: emulate request %d: status %d", i, resp.StatusCode)
		}
		lat = append(lat, float64(time.Since(start))/float64(time.Millisecond))
	}
	sort.Float64s(lat)
	return &emulateReport{
		Requests: n,
		P50MS:    round2(lat[len(lat)/2]),
		P99MS:    round2(lat[min(len(lat)-1, len(lat)*99/100)]),
	}, nil
}

// postGrid submits one grid and returns the assembled table plus the
// request's wall time.
func postGrid(ts *httptest.Server, greq server.GridRequest) (*server.GridResponse, float64, error) {
	body, err := json.Marshal(greq)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	resp, err := ts.Client().Post(ts.URL+"/v1/grid", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	ms := float64(time.Since(start)) / float64(time.Millisecond)
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, 0, fmt.Errorf("schemabench: grid: status %d: %s", resp.StatusCode, raw)
	}
	var gresp server.GridResponse
	if err := json.NewDecoder(resp.Body).Decode(&gresp); err != nil {
		return nil, 0, err
	}
	return &gresp, ms, nil
}

// measureGridService times POST /v1/grid cold, warm, and store-warm.
// The store-warm leg stands up a brand-new Server on the cold run's
// store directory — the restart-survival contract — and the harness
// refuses to report if either repeat recomputes a single cell.
func measureGridService(smoke bool) (*gridServiceReport, error) {
	dir, err := os.MkdirTemp("", "schemabench-store-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	greq := server.GridRequest{
		Benches:    []string{"crc", "randmath", "bitcount"},
		Techniques: []string{"schematic", "ratchet", "mementos"},
		TBPFs:      []int64{2_000, 10_000},
		Options:    server.Options{ProfileRuns: 10},
	}
	if smoke {
		greq.Benches = []string{"crc"}
		greq.Techniques = []string{"schematic", "ratchet"}
		greq.TBPFs = []int64{500}
		greq.Options.ProfileRuns = 2
	}

	newDaemon := func() (*server.Server, *httptest.Server, error) {
		st, err := store.Open(dir, store.Options{})
		if err != nil {
			return nil, nil, err
		}
		s := server.New(server.Config{Store: st})
		return s, httptest.NewServer(s.Handler()), nil
	}
	shutdown := func(s *server.Server, ts *httptest.Server) {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Drain(ctx)
		s.Close()
	}

	s1, ts1, err := newDaemon()
	if err != nil {
		return nil, err
	}
	cold, coldMS, err := postGrid(ts1, greq)
	if err != nil {
		shutdown(s1, ts1)
		return nil, err
	}
	if cold.CellErrors > 0 || cold.CellsComputed != cold.CellsTotal {
		shutdown(s1, ts1)
		return nil, fmt.Errorf("schemabench: cold grid computed %d/%d cells with %d errors — fix it before benchmarking",
			cold.CellsComputed, cold.CellsTotal, cold.CellErrors)
	}
	warm, warmMS, err := postGrid(ts1, greq)
	shutdown(s1, ts1)
	if err != nil {
		return nil, err
	}
	if warm.CellsComputed != 0 || warm.CellErrors > 0 {
		return nil, fmt.Errorf("schemabench: warm grid recomputed %d cells — the cache tier is broken", warm.CellsComputed)
	}

	// The restart: a fresh Server and store handle over the same files.
	s2, ts2, err := newDaemon()
	if err != nil {
		return nil, err
	}
	stored, storeMS, err := postGrid(ts2, greq)
	shutdown(s2, ts2)
	if err != nil {
		return nil, err
	}
	if stored.CellsComputed != 0 || stored.CellsFromStore != stored.CellsTotal {
		return nil, fmt.Errorf("schemabench: store-warm grid resolved %d/%d cells from disk (computed %d) — the store tier is broken",
			stored.CellsFromStore, stored.CellsTotal, stored.CellsComputed)
	}

	return &gridServiceReport{
		Cells:            cold.CellsTotal,
		ColdMS:           round2(coldMS),
		WarmMS:           round2(warmMS),
		StoreWarmMS:      round2(storeMS),
		WarmSpeedup:      round2(coldMS / warmMS),
		StoreWarmSpeedup: round2(coldMS / storeMS),
	}, nil
}

// measureLoadtest runs the generator's default closed-loop mix against
// an in-process daemon with a disk store. Any failed request fails the
// benchmark: this cell doubles as a smoke test of the service under
// concurrency.
func measureLoadtest(smoke bool) (*loadtestReport, error) {
	dir, err := os.MkdirTemp("", "schemabench-load-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return nil, err
	}
	s := server.New(server.Config{Store: st})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Drain(ctx)
		s.Close()
	}()

	n, c := 2000, 32
	if smoke {
		n, c = 120, 8
	}
	rep, err := loadtest.Run(context.Background(), loadtest.Options{
		BaseURL:     ts.URL,
		Requests:    n,
		Concurrency: c,
		Seeds:       3,
		Client:      ts.Client(),
	})
	if err != nil {
		return nil, err
	}
	if rep.Errors > 0 {
		return nil, fmt.Errorf("schemabench: loadtest saw %d errors in %d requests — fix them before benchmarking",
			rep.Errors, rep.Requests)
	}
	return &loadtestReport{
		Requests:      rep.Requests,
		Concurrency:   c,
		Errors:        rep.Errors,
		ThroughputRPS: round2(rep.ThroughputRPS),
		P50MS:         round2(rep.P50MS),
		P99MS:         round2(rep.P99MS),
		CacheHitRate:  round4(rep.CacheHitRate),
		StorePuts:     rep.StorePutsDelta,
	}, nil
}

// measureSSE drives observed emulations (options.observe: hub, ring and
// attribution collector attached) against an in-process schematicd with
// 0, 1, and 16 concurrent SSE subscribers per run, and times a full SSE
// replay of a retained stream. Subscribers poll until the run registers,
// then read their stream to the terminal record; request latency is the
// POST wall time, so the subscriber deltas measure exactly what fan-out
// adds to the emulator's critical path.
func measureSSE(smoke bool) (*sseReport, error) {
	n := 30
	if smoke {
		n = 6
	}
	s := server.New(server.Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Drain(ctx)
		s.Close()
	}()

	seed := int64(5000)
	var lastDigest string
	p50 := map[int]float64{}
	for _, subs := range []int{0, 1, 16} {
		lat := make([]float64, 0, n)
		for i := 0; i < n; i++ {
			seed++ // distinct digest per request: no cache hits
			req := server.Request{
				Bench: "crc",
				Options: server.Options{
					Technique: "schematic", ProfileRuns: 5, Seed: seed, Observe: true,
				},
			}
			digest, err := server.DigestOf("emulate", req)
			if err != nil {
				return nil, err
			}
			lastDigest = digest
			body, err := json.Marshal(req)
			if err != nil {
				return nil, err
			}
			var wg sync.WaitGroup
			for k := 0; k < subs; k++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					deadline := time.Now().Add(30 * time.Second)
					for time.Now().Before(deadline) {
						resp, err := ts.Client().Get(ts.URL + "/v1/runs/" + digest + "/events")
						if err != nil {
							return
						}
						if resp.StatusCode == http.StatusOK {
							_, _ = io.Copy(io.Discard, resp.Body)
							resp.Body.Close()
							return
						}
						resp.Body.Close()
						time.Sleep(time.Millisecond) // run not registered yet
					}
				}()
			}
			start := time.Now()
			resp, err := ts.Client().Post(ts.URL+"/v1/emulate", "application/json", bytes.NewReader(body))
			if err != nil {
				return nil, err
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return nil, fmt.Errorf("schemabench: observed emulate (%d subs) request %d: status %d", subs, i, resp.StatusCode)
			}
			lat = append(lat, float64(time.Since(start))/float64(time.Millisecond))
			wg.Wait()
		}
		sort.Float64s(lat)
		p50[subs] = round2(lat[len(lat)/2])
	}

	// Replay throughput: stream the last retained run's ring end to end.
	start := time.Now()
	resp, err := ts.Client().Get(ts.URL + "/v1/runs/" + lastDigest + "/events")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("schemabench: replay: status %d", resp.StatusCode)
	}
	var events int64
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "data: ") {
			events++
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	replaySec := time.Since(start).Seconds()

	// The run's true emitted-event count (the ring may have evicted a
	// prefix), for scaling publish overhead to a per-run budget.
	var sum struct {
		Events int64 `json:"events"`
	}
	dresp, err := ts.Client().Get(ts.URL + "/v1/runs/" + lastDigest)
	if err != nil {
		return nil, err
	}
	err = json.NewDecoder(dresp.Body).Decode(&sum)
	dresp.Body.Close()
	if err != nil {
		return nil, err
	}
	if sum.Events == 0 {
		return nil, fmt.Errorf("schemabench: run %s reports zero events", lastDigest)
	}

	// Publisher-side hub fan-out cost, isolated from HTTP and JSON.
	pubEvents := 500000
	if smoke {
		pubEvents = 100000
	}
	pub := map[int]float64{}
	for _, subs := range []int{0, 1, 16} {
		pub[subs] = hubPublishNS(subs, pubEvents)
	}
	budgetNS := p50[0] * 1e6 / float64(sum.Events) // emulate time per event, 0-sub

	return &sseReport{
		RequestsPerCell:      n,
		CPUs:                 runtime.NumCPU(),
		PublishNS0Sub:        round2(pub[0]),
		PublishNS1Sub:        round2(pub[1]),
		PublishNS16Sub:       round2(pub[16]),
		OneSubHotpathPct:     round2(100 * (pub[1] - pub[0]) / budgetNS),
		SixteenSubHotpathPct: round2(100 * (pub[16] - pub[0]) / budgetNS),
		P50MS0Sub:            p50[0],
		P50MS1Sub:            p50[1],
		P50MS16Sub:           p50[16],
		OneSubDeltaPct:       round2(100 * (p50[1] - p50[0]) / p50[0]),
		SixteenSubDeltaPct:   round2(100 * (p50[16] - p50[0]) / p50[0]),
		ReplayEvents:         events,
		ReplayEventsPerSec:   round2(float64(events) / replaySec),
	}, nil
}

// measureCrashtest times the crash-consistency hunter over the quick
// benchmarks under every technique.
func measureCrashtest(smoke bool) (*crashReport, error) {
	benches := []string{"crc", "randmath"}
	opts := crashtest.Options{}
	if smoke {
		benches = []string{"randmath"}
		opts = crashtest.Options{ExhaustiveStepLimit: 400, SampledSteps: 10, SampledSaves: 3, RandomSchedules: 2}
	}
	var techs []string
	for _, t := range bench.Techniques() {
		techs = append(techs, t.Name())
	}
	cases, err := crashtest.BenchCases(benches, techs, 1)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	for _, cs := range cases {
		f, err := crashtest.Hunt(context.Background(), cs, opts)
		if err != nil && !crashtest.IsSkip(err) {
			return nil, fmt.Errorf("schemabench: hunt %s/%s: %w", cs.Name, cs.Technique, err)
		}
		if f != nil {
			return nil, fmt.Errorf("schemabench: hunt %s/%s found a real violation: %s — fix it before benchmarking",
				cs.Name, cs.Technique, f.Class)
		}
	}
	sec := time.Since(start).Seconds()
	return &crashReport{
		Cases:       len(cases),
		Seconds:     round2(sec),
		CasesPerSec: round2(float64(len(cases)) / sec),
	}, nil
}

// measureVerify times the bounded model checker over the exhaustively
// checkable subset and races the sampling hunter over the identical case
// list for the wall-clock comparison. Wait-style cells (contract checks,
// no exploration) count toward both wall clocks but not the state/edge
// totals.
func measureVerify(smoke bool) (*verifyReport, error) {
	benches := []string{"crc", "randmath"}
	huntOpts := crashtest.Options{}
	if smoke {
		benches = []string{"randmath"}
		huntOpts = crashtest.Options{ExhaustiveStepLimit: 400, SampledSteps: 10, SampledSaves: 3, RandomSchedules: 2}
	}
	var techs []string
	for _, t := range bench.Techniques() {
		techs = append(techs, t.Name())
	}
	cases, err := crashtest.BenchCases(benches, techs, 1)
	if err != nil {
		return nil, err
	}

	rep := &verifyReport{Cases: len(cases)}
	var dedup int64
	start := time.Now()
	for _, cs := range cases {
		r, err := verify.Run(context.Background(), cs, verify.Options{})
		if err != nil && !crashtest.IsSkip(err) {
			return nil, fmt.Errorf("schemabench: verify %s/%s: %w", cs.Name, cs.Technique, err)
		}
		if err != nil {
			continue
		}
		if r.Verdict != verify.Verified {
			return nil, fmt.Errorf("schemabench: verify %s/%s: verdict %s — fix it before benchmarking",
				cs.Name, cs.Technique, r.Verdict)
		}
		if !r.WaitContract {
			rep.Explored++
			rep.States += int64(r.States)
			rep.Edges += r.Edges
			dedup += r.DedupHits
		}
	}
	verifySec := time.Since(start).Seconds()

	start = time.Now()
	for _, cs := range cases {
		f, err := crashtest.Hunt(context.Background(), cs, huntOpts)
		if err != nil && !crashtest.IsSkip(err) {
			return nil, fmt.Errorf("schemabench: hunt %s/%s: %w", cs.Name, cs.Technique, err)
		}
		if f != nil {
			return nil, fmt.Errorf("schemabench: hunt %s/%s found a real violation: %s — fix it before benchmarking",
				cs.Name, cs.Technique, f.Class)
		}
	}
	samplingSec := time.Since(start).Seconds()

	if rep.Edges > 0 {
		rep.DedupHitRate = round4(float64(dedup) / float64(rep.Edges))
	}
	rep.StatesPerSec = round2(float64(rep.States) / verifySec)
	rep.EdgesPerSec = round2(float64(rep.Edges) / verifySec)
	rep.VerifySeconds = round2(verifySec)
	rep.SamplingSeconds = round2(samplingSec)
	if samplingSec > 0 {
		rep.VsSampling = round2(verifySec / samplingSec)
	}
	return rep, nil
}

// measureHarvest times the emulator under harvested-energy schedules
// (internal/harvest capacitor over solar, RF, and duty-cycled
// waveforms) against the built-in exhaustion physics on identical
// placed cells: the quick benchmarks under every supporting technique.
// Iteration 0 warms the compiled-program cache; only later iterations
// are timed. The cell refuses to report if any harvested run fails to
// complete, diverges from its exhaustion twin's output, or if the
// recorded solar trace does not replay to a bit-identical Result.
func measureHarvest(smoke bool) (*harvestReport, error) {
	const tbpf = 100_000
	benchNames := []string{"crc", "randmath"}
	iters, profileRuns := 2, 50
	if smoke {
		benchNames = []string{"crc"}
		iters, profileRuns = 1, 3
	}
	var benches []*bench.Benchmark
	for _, name := range benchNames {
		b, err := bench.ByName(name)
		if err != nil {
			return nil, err
		}
		benches = append(benches, b)
	}
	cells, err := gridCells(benches, tbpf, profileRuns)
	if err != nil {
		return nil, err
	}
	h := bench.NewHarness()

	// Schedules are stateful and single-run; each entry is a factory.
	envs := []func(eb float64) emulator.PowerSchedule{
		func(eb float64) emulator.PowerSchedule {
			return harvest.Capacitor{Env: harvest.Solar{Seed: 7}, Capacity: eb}.Schedule()
		},
		func(eb float64) emulator.PowerSchedule {
			return harvest.Capacitor{Env: harvest.RF{Seed: 3}, Capacity: eb}.Schedule()
		},
		func(eb float64) emulator.PowerSchedule {
			return harvest.Capacitor{Env: harvest.Duty{}, Capacity: eb}.Schedule()
		},
	}

	run := func(c *cell, sched emulator.PowerSchedule, observer emulator.Observer) (*emulator.Result, time.Duration, error) {
		start := time.Now()
		res, err := emulator.Run(c.mod, emulator.Config{
			Model: h.Model, VMSize: h.VMSize, Intermittent: true,
			EB: c.eb, Inputs: c.inputs, Schedule: sched, Observer: observer,
		})
		return res, time.Since(start), err
	}

	rep := &harvestReport{Environments: len(envs), Cells: len(cells)}
	var exDur, hDur time.Duration
	for iter := 0; iter <= iters; iter++ {
		for i := range cells {
			c := &cells[i]
			ex, d, err := run(c, nil, nil) // built-in exhaustion physics
			if err != nil {
				return nil, err
			}
			if iter > 0 {
				rep.ExhaustionSteps += ex.Steps
				exDur += d
			}
			for _, mk := range envs {
				hv, d, err := run(c, mk(c.eb), nil)
				if err != nil {
					return nil, err
				}
				if hv.Verdict != emulator.Completed || !reflect.DeepEqual(hv.Output, ex.Output) {
					return nil, fmt.Errorf("schemabench: harvest: cell %d diverged from its exhaustion twin (verdict %v) — fix it before benchmarking",
						i, hv.Verdict)
				}
				if iter > 0 {
					rep.HarvestedSteps += hv.Steps
					hDur += d
				}
			}
		}
	}
	rep.ExhaustionMips = round2(float64(rep.ExhaustionSteps) / exDur.Seconds() / 1e6)
	rep.HarvestedMips = round2(float64(rep.HarvestedSteps) / hDur.Seconds() / 1e6)
	rep.OverheadPct = round2(100 * (rep.ExhaustionMips/rep.HarvestedMips - 1))

	// Record one solar run into the versioned NDJSON trace and replay
	// it; record and replay must produce bit-identical Results.
	c := &cells[0]
	solar := envs[0](c.eb)
	rec := harvest.NewRecorder(solar, c.eb)
	rec.SampleEvery = 10_000
	recorded, _, err := run(c, solar, rec)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := rec.Trace().Write(&buf); err != nil {
		return nil, err
	}
	tr, err := harvest.ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return nil, err
	}
	replayed, _, err := run(c, tr.Schedule(), nil)
	if err != nil {
		return nil, err
	}
	rep.TraceBytes = buf.Len()
	rep.ReplayIdentical = reflect.DeepEqual(recorded, replayed)
	if !rep.ReplayIdentical {
		return nil, fmt.Errorf("schemabench: harvest: trace replay diverged from the recorded run — fix it before benchmarking")
	}
	return rep, nil
}

// checkRegression gates CI: the measured compiled grid throughput must
// be at least 80% of the committed report's figure for the same grid
// kind (smoke vs full).
func checkRegression(path string, got *gridReport) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var want report
	if err := json.Unmarshal(data, &want); err != nil {
		return fmt.Errorf("schemabench: %s: %w", path, err)
	}
	ref := want.Grid
	if want.SmokeGrid != nil && got.Iters == want.SmokeGrid.Iters && got.Cells == want.SmokeGrid.Cells {
		ref = want.SmokeGrid
	}
	if ref == nil {
		return fmt.Errorf("schemabench: %s has no comparable grid section", path)
	}
	if got.CompiledMips < 0.8*ref.CompiledMips {
		return fmt.Errorf("schemabench: grid throughput regressed >20%%: %.2f Minstr/s now vs %.2f committed (%s)",
			got.CompiledMips, ref.CompiledMips, path)
	}
	fmt.Fprintf(os.Stderr, "schemabench: check ok: %.2f Minstr/s vs %.2f committed\n", got.CompiledMips, ref.CompiledMips)
	return nil
}

func round2(v float64) float64 {
	return float64(int64(v*100+0.5)) / 100
}

func round4(v float64) float64 {
	return float64(int64(v*10000+0.5)) / 10000
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "schemabench:", err)
		os.Exit(1)
	}
}
