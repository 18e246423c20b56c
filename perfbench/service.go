package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"schematic/internal/baselines"
	"schematic/internal/bench"
	"schematic/internal/emulator"
	"schematic/internal/energy"
	"schematic/internal/ir"
	"schematic/internal/loadtest"
	"schematic/internal/minic"
	"schematic/internal/opt"
	"schematic/internal/server"
	"schematic/internal/store"
	"schematic/internal/trace"
	"schematic/internal/transval"
)

// serviceGridTechs are the grid's techniques: they place every bundled
// benchmark at every TBPF.
var serviceGridTechs = []string{"schematic", "ratchet", "rockclimb"}

const serviceProfileRuns = 10

// svcReq is one request of the closed-loop mix.
type svcReq struct {
	id     string
	kind   string // the endpoint under /v1/: compile, emulate or validate
	req    server.Request
	body   []byte
	repeat bool // an emulate sent again: a cache hit
}

// population builds the closed-loop requests from the seed.
//
// The emulates are one miss for every (benchmark, technique that fits its
// VM, TBPF) combination, in a seeded order and each with a fresh input
// seed, and after every fourth miss a repeat of an earlier one, which is
// a cache hit; a fixed quarter of the combinations ask for the optimizer.
// Compiles and validates join at loadtest.DefaultMix's shares, two and
// one for every twelve emulates, each for a combination taken at even
// steps through the list. Every seed thus sends the same work; only the
// order and the inputs change. (Drawing the combinations instead would
// let the seed pick how many sha requests, ten times the cost of a crc
// one, a pass holds.)
func population(p *params) ([]svcReq, error) {
	var combos []server.Request
	for _, name := range p.serviceBenches {
		b, err := bench.ByName(name)
		if err != nil {
			return nil, err
		}
		m, err := b.Module()
		if err != nil {
			return nil, err
		}
		for _, t := range bench.Techniques() {
			if !t.SupportsVM(m, 2048) {
				continue
			}
			for _, tbpf := range bench.TBPFs {
				combos = append(combos, server.Request{Bench: name, Options: server.Options{
					Technique:   strings.ToLower(t.Name()),
					TBPF:        tbpf,
					ProfileRuns: serviceProfileRuns,
					Optimize:    len(combos)%4 == 0,
				}})
			}
		}
	}
	mix := loadtest.DefaultMix
	emulates := len(combos) + len(combos)/4
	nCompile := (emulates*mix.Compile + mix.Emulate - 1) / mix.Emulate
	nValidate := (emulates*mix.Validate + mix.Emulate - 1) / mix.Emulate

	var out []svcReq
	add := func(kind string, req server.Request) error {
		req.Options.Seed = p.seed*1_000_000 + int64(len(out)) + 1
		body, err := json.Marshal(req)
		if err != nil {
			return err
		}
		out = append(out, svcReq{id: fmt.Sprintf("%s%d", kind, len(out)), kind: kind, req: req, body: body})
		return nil
	}
	// emulated counts one more emulate and adds the compiles and
	// validates now due.
	sent, compiles, validates := 0, 0, 0
	emulated := func() error {
		sent++
		for ; compiles*mix.Emulate < sent*mix.Compile; compiles++ {
			if err := add("compile", combos[compiles*len(combos)/nCompile]); err != nil {
				return err
			}
		}
		for ; validates*mix.Emulate < sent*mix.Validate; validates++ {
			if err := add("validate", combos[(2*validates+1)*len(combos)/(2*nValidate)]); err != nil {
				return err
			}
		}
		return nil
	}
	rng := rand.New(rand.NewSource(p.seed))
	var misses []int // indices into out
	for n, k := range rng.Perm(len(combos)) {
		misses = append(misses, len(out))
		if err := add("emulate", combos[k]); err != nil {
			return nil, err
		}
		if err := emulated(); err != nil {
			return nil, err
		}
		if n%4 == 3 {
			r := out[misses[rng.Intn(len(misses))]]
			r.id, r.repeat = fmt.Sprintf("hit%d", len(out)), true
			out = append(out, r)
			if err := emulated(); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// daemon is an in-process schematicd with a disk store, reached over
// HTTP with at most p.workers connections.
type daemon struct {
	srv    *server.Server
	ts     *httptest.Server
	client *http.Client
}

func startDaemon(p *params, dir string) (*daemon, error) {
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return nil, err
	}
	srv := server.New(server.Config{Workers: p.workers, Store: st})
	return &daemon{srv: srv, ts: httptest.NewServer(srv.Handler()), client: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: p.workers, MaxIdleConnsPerHost: p.workers,
	}}}, nil
}

func (d *daemon) stop() {
	d.client.CloseIdleConnections()
	d.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = d.srv.Drain(ctx) // a drain that times out still leaves Close to cancel the jobs
	d.srv.Close()
}

// post sends one JSON request and decodes a 200 response into out. It
// returns the status code, or 0 when no response arrived.
func (d *daemon) post(ctx context.Context, path string, body []byte, out any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return resp.StatusCode, fmt.Errorf("%s: %s: %s", path, resp.Status, bytes.TrimSpace(raw))
	}
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(out)
}

// answer is one response to check: a completed emulation, a compiled
// program or a validation.
type answer struct {
	round int
	bench string
	seed  int64
	resp  any // *server.EmulateResponse, *server.CompileResponse or *server.ValidateResponse
}

func digestOf(resp any) string {
	switch r := resp.(type) {
	case *server.EmulateResponse:
		return r.Digest
	case *server.CompileResponse:
		return r.Digest
	case *server.ValidateResponse:
		return r.Digest
	}
	return ""
}

// svcRun collects what the service rounds observed.
type svcRun struct {
	round   int // set before each round's requests are sent
	mu      sync.Mutex
	answers []answer
	latency map[string][]float64 // ms by request kind, for the info line
	// counters are the traced round's server counters; nil in an
	// untraced round.
	counters map[string]float64
}

func (r *svcRun) record(kind string, lat time.Duration, code int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.latency[kind] = append(r.latency[kind], ms(lat))
	if r.counters != nil && code == http.StatusTooManyRequests {
		r.counters["server.queue.rejected"]++
	}
}

func (r *svcRun) answered(bench string, seed int64, resp any) {
	r.mu.Lock()
	r.answers = append(r.answers, answer{r.round, bench, seed, resp})
	r.mu.Unlock()
}

// stop shuts a daemon down; in a traced round it first adds the daemon's
// cache and store counters to the round's.
func (r *svcRun) stop(d *daemon) {
	if r.counters != nil {
		c, s := d.srv.CacheStats(), d.srv.StoreStats()
		r.counters["cache.hits"] += float64(c.Hits + c.Coalesced)
		r.counters["cache.lookups"] += float64(c.Hits + c.Coalesced + c.Misses)
		r.counters["server.store.hits"] += float64(s.Hits)
		r.counters["server.store.puts"] += float64(s.Puts)
	}
	d.stop()
}

// runService drives an in-process schematicd over HTTP in rounds. A round
// sends the closed-loop mix on p.workers connections to a daemon on an
// empty store, then a cold 45-cell grid with a fresh seed to another,
// then restarts that one on its store, which must serve the same grid
// from disk. The closed loop's rate is ops_per_s, the cold grid is the
// job, and the restart is the set-up. With -trace 1 every other round is
// traced, and the first traced round is replayed layer by layer.
func runService(ctx context.Context, p *params, o *outcome) error {
	base, err := os.MkdirTemp(p.outdir, "perfbench-service-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(base)

	reqs, err := population(p)
	if err != nil {
		return err
	}
	run := &svcRun{latency: map[string][]float64{}}
	var closedRPS []float64
	var counters map[string]float64
	// The per-layer counts come from the first traced round, whose grid
	// seed does not depend on how many rounds fit in the run.
	replayed := -1       // the first traced round
	var replaySeed int64 // and its grid seed
	err = p.repeat(o, nil, func(i int, traced bool) error {
		run.round = i
		var tr *tracer
		var root int64
		endRoot := noop
		if traced {
			tr = newTracer()
			root, endRoot = tr.begin(0, "", "service")
			run.counters = map[string]float64{}
		}
		dir := filepath.Join(base, fmt.Sprintf("round-%d", i))
		d, err := startDaemon(p, filepath.Join(dir, "closed"))
		if err != nil {
			return err
		}
		t0 := time.Now()
		closedLoop(ctx, p, o, d, reqs, run, tr, root)
		wall := time.Since(t0)
		run.stop(d)

		seed := p.seed*1_000 + int64(i) + 1
		cold, restart, err := gridPass(ctx, p, o, run, filepath.Join(dir, "grid"), seed, tr, root)
		endRoot()
		if err != nil {
			return err
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		if !traced {
			closedRPS = append(closedRPS, float64(len(reqs))/wall.Seconds())
			o.opTimes = append(o.opTimes, wall)
			o.jobs = append(o.jobs, cold)
			o.setups = append(o.setups, restart)
			return nil
		}
		o.traced = append(o.traced, cold)
		o.acct.all = append(o.acct.all, tr.snapshot()...)
		if replayed < 0 {
			counters = run.counters
			replayed, replaySeed = i, seed
		}
		run.counters = nil
		return nil
	})
	if err != nil {
		return err
	}
	o.opsPerPass = len(reqs)
	kinds := map[string]int{}
	for _, r := range reqs {
		kinds[r.kind]++
		if r.repeat {
			kinds["hit"]++
		}
	}
	latency := map[string]dist{}
	for kind, xs := range run.latency {
		latency[kind] = distOf(xs)
	}
	o.note("requests", kinds)
	o.note("closed_loop_rps", closedRPS)
	o.note("latency_ms", latency)

	if p.trace {
		o.note("client_p50_ms", clientLatency(o.acct.all))
		if err := serviceReplay(ctx, p, o, reqs, replaySeed); err != nil {
			return err
		}
		if counters["cache.lookups"] > 0 {
			o.counts["server.cache.hit_ratio"] = counters["cache.hits"] / counters["cache.lookups"]
		}
		for _, k := range []string{"server.store.hits", "server.store.puts", "server.queue.rejected"} {
			o.counts[k] = counters[k]
		}
	}
	return checkService(ctx, p, o, run, replayed)
}

// clientLatency is the median duration of the traced rounds' requests of
// each kind.
func clientLatency(spans []span) map[string]float64 {
	byName := map[string][]float64{}
	for _, s := range spans {
		if strings.HasPrefix(s.Name, "client.") {
			byName[s.Name] = append(byName[s.Name], float64(s.End-s.Start)/1e6)
		}
	}
	out := map[string]float64{}
	for name, xs := range byName {
		out[strings.TrimPrefix(name, "client.")] = median(xs)
	}
	return out
}

// closedLoop sends reqs on p.workers connections, each sending its next
// request only when the previous one has been answered.
func closedLoop(ctx context.Context, p *params, o *outcome, d *daemon, reqs []svcReq, run *svcRun, tr *tracer, parent int64) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < p.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(reqs); i = int(next.Add(1)) - 1 {
				send(ctx, o, d, reqs[i], run, tr, parent)
			}
		}()
	}
	wg.Wait()
	o.attempted += len(reqs)
}

// send posts one request of the mix and keeps its answer for checking.
// Emulate misses are the operations whose latency the run reports; a
// failed one counts as missing any latency limit, so it is recorded as
// taking an hour.
func send(ctx context.Context, o *outcome, d *daemon, r svcReq, run *svcRun, tr *tracer, parent int64) {
	kind := r.kind
	if r.repeat {
		kind = "hit"
	}
	var resp any
	switch r.kind {
	case "compile":
		resp = &server.CompileResponse{}
	case "validate":
		resp = &server.ValidateResponse{}
	default:
		resp = &server.EmulateResponse{}
	}
	_, end := tr.begin(parent, r.id, "client."+kind)
	t0 := time.Now()
	code, err := d.post(ctx, "/v1/"+r.kind, r.body, resp)
	lat := time.Since(t0)
	end()
	if err != nil {
		lat = time.Hour
		o.fail("%s: %v", r.id, err)
	}
	run.record(kind, lat, code)
	if kind == "emulate" {
		o.op(r.id, r.req.Bench, lat)
	}
	if e, ok := resp.(*server.EmulateResponse); err == nil && (!ok || e.Completed) {
		run.answered(r.req.Bench, r.req.Options.Seed, resp)
	}
}

// gridPass submits a cold grid with a fresh seed to a daemon on an empty
// store, then starts a second daemon on that store and submits the grid
// again; that one must answer every cell from disk. It returns the cold
// grid's time and the restart's: opening the store, starting the daemon
// and serving the grid.
func gridPass(ctx context.Context, p *params, o *outcome, run *svcRun, dir string, seed int64, tr *tracer, parent int64) (cold, restart time.Duration, err error) {
	body, err := json.Marshal(server.GridRequest{
		Benches:    p.serviceBenches,
		Techniques: serviceGridTechs,
		TBPFs:      bench.TBPFs,
		Options:    server.Options{ProfileRuns: serviceProfileRuns, Seed: seed},
	})
	if err != nil {
		return 0, 0, err
	}
	d, err := startDaemon(p, dir)
	if err != nil {
		return 0, 0, err
	}
	var coldResp, warmResp server.GridResponse
	_, end := tr.begin(parent, fmt.Sprintf("grid%d", seed), "client.grid")
	t0 := time.Now()
	_, err = d.post(ctx, "/v1/grid", body, &coldResp)
	cold = time.Since(t0)
	end()
	run.stop(d)
	o.attempted += 2
	if err != nil {
		o.fail("cold grid: %v", err)
		return cold, 0, nil
	}
	if coldResp.CellErrors > 0 || coldResp.CellsComputed != coldResp.CellsTotal {
		o.fail("cold grid: computed %d of %d cells with %d errors", coldResp.CellsComputed, coldResp.CellsTotal, coldResp.CellErrors)
	}
	for _, c := range coldResp.Cells {
		if c.Result != nil && c.Result.Completed {
			run.answered(c.Bench, seed, c.Result)
		}
	}

	t0 = time.Now()
	d, err = startDaemon(p, dir)
	if err != nil {
		return 0, 0, err
	}
	_, err = d.post(ctx, "/v1/grid", body, &warmResp)
	restart = time.Since(t0)
	run.stop(d)
	if err != nil {
		o.fail("store-warm grid: %v", err)
	} else if warmResp.CellsFromStore != warmResp.CellsTotal || warmResp.CellsComputed != 0 || warmResp.CellErrors > 0 {
		o.fail("store-warm grid: %d of %d cells from the store, %d recomputed, %d errors",
			warmResp.CellsFromStore, warmResp.CellsTotal, warmResp.CellsComputed, warmResp.CellErrors)
	}
	return cold, restart, nil
}

// checkService checks every distinct response. An emulation's output, and
// the output of a compiled program run on continuous power, must equal
// the MiniC interpreter's on the inputs the server generated from the
// request's seed. A validation must pass: the program translates
// correctly through lowering, the optimizer and the request's placement
// on those inputs. The per-layer cell counts
// cover the distinct responses of round counted only, so that they do
// not depend on how many rounds fit in the run.
func checkService(ctx context.Context, p *params, o *outcome, run *svcRun, counted int) error {
	type key struct {
		bench string
		seed  int64
	}
	seen := map[string]bool{}
	var distinct []answer
	idx := map[key]int{}
	var keys []key
	for _, a := range run.answers {
		if seen[digestOf(a.resp)] {
			continue
		}
		seen[digestOf(a.resp)] = true
		distinct = append(distinct, a)
		if k := (key{a.bench, a.seed}); idx[k] == 0 {
			keys = append(keys, k)
			idx[k] = len(keys)
		}
	}
	outs := make([][]int64, len(keys))
	inputs := make([]map[string][]int64, len(keys))
	err := bench.ParallelForCtx(ctx, p.workers, len(keys), func(i int) error {
		b, err := bench.ByName(keys[i].bench)
		if err != nil {
			return err
		}
		outs[i], err = interpret(b.Name, b.Source, func() (map[string][]int64, error) {
			m, err := b.Module()
			if err != nil {
				return nil, err
			}
			inputs[i] = trace.RandomInputs(m, rand.New(rand.NewSource(keys[i].seed)))
			return inputs[i], nil
		})
		return err
	})
	if err != nil {
		return err
	}
	wrong := map[string]bool{}
	for _, a := range distinct {
		i := idx[key{a.bench, a.seed}] - 1
		if err := checkAnswer(p, a.resp, inputs[i], outs[i]); err != nil {
			wrong[digestOf(a.resp)] = true
			o.fail("%.12s %s seed %d: %v", digestOf(a.resp), a.bench, a.seed, err)
		}
	}
	if o.counts != nil {
		inRound := map[string]bool{}
		for _, a := range run.answers {
			if a.round == counted {
				inRound[digestOf(a.resp)] = true
			}
		}
		o.counts["cells.completed"] = float64(len(inRound))
		for d := range inRound {
			if !wrong[d] {
				o.counts["cells.correct"]++
			}
		}
	}
	return nil
}

// checkAnswer checks one response against the interpreter's output want
// on inputs.
func checkAnswer(p *params, resp any, inputs map[string][]int64, want []int64) error {
	switch r := resp.(type) {
	case *server.EmulateResponse:
		got := r.Output
		if len(got) > 0 && p.tamper() {
			got = append([]int64{got[0] + 1}, got[1:]...)
		}
		if !reflect.DeepEqual(got, want) {
			return fmt.Errorf("%s emulation output differs from the MiniC interpreter", r.Technique)
		}
	case *server.CompileResponse:
		m, err := ir.Parse(r.IR)
		if err != nil {
			return fmt.Errorf("%s compiled IR: %w", r.Technique, err)
		}
		res, err := emulator.Run(m, emulator.Config{Model: energy.MSP430FR5969(), VMSize: 2048, Inputs: inputs})
		if err != nil {
			return fmt.Errorf("%s compiled program: %w", r.Technique, err)
		}
		if res.Verdict != emulator.Completed || !reflect.DeepEqual(res.Output, want) {
			return fmt.Errorf("%s compiled program on continuous power: verdict %v, output differs from the MiniC interpreter", r.Technique, res.Verdict)
		}
	case *server.ValidateResponse:
		if !r.OK {
			return fmt.Errorf("validation failed at stage %s: %s", r.Stage, r.Detail)
		}
	}
	return nil
}

// serviceReplay runs the traced round's distinct requests and grid cells
// through the pipeline layers directly, with a span around each call, to
// split the service's compute between the front half (compile, optimize,
// profile, place), emulation and validation.
func serviceReplay(ctx context.Context, p *params, o *outcome, reqs []svcReq, gridSeed int64) error {
	type item struct {
		kind string
		req  server.Request
	}
	var items []item
	for _, r := range reqs {
		if !r.repeat {
			items = append(items, item{r.kind, r.req})
		}
	}
	for _, b := range p.serviceBenches {
		for _, t := range serviceGridTechs {
			for _, tbpf := range bench.TBPFs {
				items = append(items, item{"emulate", server.Request{Bench: b, Options: server.Options{
					Technique: t, TBPF: tbpf, ProfileRuns: serviceProfileRuns, Seed: gridSeed,
				}}})
			}
		}
	}
	model := energy.MSP430FR5969()
	techs := map[string]baselines.Technique{}
	for _, t := range bench.Techniques() {
		techs[strings.ToLower(t.Name())] = t
	}
	tr := newTracer()
	root, endRoot := tr.begin(0, "", "replay")
	var steps, failures, profiled atomic.Int64
	t0 := time.Now()
	err := bench.ParallelForCtx(ctx, p.workers, len(items), func(i int) error {
		it, r := items[i], items[i].req
		b, err := bench.ByName(r.Bench)
		if err != nil {
			return err
		}
		tech := techs[r.Options.Technique]
		id := fmt.Sprintf("r%d", i)
		if it.kind == "validate" {
			_, end := tr.begin(root, id, "transval.validate")
			_, err := transval.Validate(transval.Case{Name: b.Name, Source: b.Source, InputSeed: r.Options.Seed},
				transval.Options{TBPF: r.Options.TBPF, ProfileRuns: r.Options.ProfileRuns, Techniques: []string{tech.Name()}})
			end()
			var skip *transval.SkipError
			if errors.As(err, &skip) {
				err = nil
			}
			return err
		}
		_, end := tr.begin(root, id, "minic.compile")
		m, err := minic.Compile(b.Name, b.Source)
		end()
		if err != nil {
			return err
		}
		if r.Options.Optimize {
			_, end = tr.begin(root, id, "opt.optimize")
			_, err = opt.Optimize(m)
			end()
			if err != nil {
				return err
			}
		}
		_, end = tr.begin(root, id, "trace.collect")
		prof, err := trace.Collect(m, trace.Options{Runs: r.Options.ProfileRuns, Seed: r.Options.Seed, Model: model})
		end()
		if err != nil {
			return err
		}
		profiled.Add(1)
		eb := prof.EBForTBPF(r.Options.TBPF)
		_, end = tr.begin(root, id, applyLayer(tech.Name()))
		err = tech.Apply(m, baselines.Params{Model: model, Budget: eb, VMSize: 2048, Profile: prof})
		end()
		if err != nil || it.kind == "compile" {
			return err
		}
		inputs := trace.RandomInputs(m, rand.New(rand.NewSource(r.Options.Seed)))
		_, end = tr.begin(root, id, "emulator.exhaustion")
		res, err := emulator.Run(m, emulator.Config{Model: model, VMSize: 2048, Intermittent: true, EB: eb, Inputs: inputs})
		end()
		if err != nil {
			return err
		}
		steps.Add(res.Steps)
		failures.Add(int64(res.PowerFailures))
		return nil
	})
	endRoot()
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	o.acct.add(tr, p.workers, time.Since(t0))
	o.counts = map[string]float64{
		"emulator.steps":          float64(steps.Load()),
		"emulator.power_failures": float64(failures.Load()),
		"trace.runs":              float64(profiled.Load() * serviceProfileRuns),
	}
	if emu := selfTimes(tr.snapshot())["emulator.exhaustion"]; emu > 0 {
		o.counts["emulator.exhaustion.minstr_per_s"] = float64(steps.Load()) / emu.Seconds() / 1e6
	}
	return nil
}
