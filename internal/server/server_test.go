package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"schematic/internal/emulator"
)

// sumProg is a tiny MiniC workload: fast under every endpoint yet large
// enough for placement to have something to do.
const sumProg = `
input int x[8];
int acc;
func void main() {
  int i;
  acc = 0;
  for (i = 0; i < 8; i = i + 1) @max(8) {
    acc = (acc + x[i]) & 0xFFFF;
  }
  print(acc);
}
`

// fastOpts keeps profiling cheap in tests.
func fastOpts(technique string) Options {
	return Options{Technique: technique, TBPF: 500, ProfileRuns: 2}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain on cleanup: %v", err)
		}
		s.Close()
	})
	return s, ts
}

// post sends one job request and returns status, body, and headers.
func post(t *testing.T, ts *httptest.Server, endpoint string, req Request) (int, []byte, http.Header) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/"+endpoint, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out, resp.Header
}

func decode[T any](t *testing.T, body []byte) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("decode %T from %q: %v", v, body, err)
	}
	return v
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestCompileEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, body, hdr := post(t, ts, "compile", Request{Name: "sum", Source: sumProg, Options: fastOpts("schematic")})
	if code != http.StatusOK {
		t.Fatalf("compile: status %d, body %s", code, body)
	}
	r := decode[CompileResponse](t, body)
	if r.Checkpoints < 1 {
		t.Errorf("schematic placement produced %d checkpoints, want >= 1", r.Checkpoints)
	}
	if r.EBnJ <= 0 {
		t.Errorf("derived EB %v, want > 0", r.EBnJ)
	}
	if !strings.Contains(r.IR, "func") {
		t.Errorf("IR missing function text: %q", r.IR)
	}
	if hdr.Get("X-Schematic-Digest") != r.Digest || len(r.Digest) != 64 {
		t.Errorf("digest mismatch: header %q vs body %q", hdr.Get("X-Schematic-Digest"), r.Digest)
	}

	// Technique "none" is the untransformed front end.
	code, body, _ = post(t, ts, "compile", Request{Name: "sum", Source: sumProg, Options: Options{Technique: "none"}})
	if code != http.StatusOK {
		t.Fatalf("compile none: status %d, body %s", code, body)
	}
	if r := decode[CompileResponse](t, body); r.Checkpoints != 0 || r.EBnJ != 0 {
		t.Errorf("technique none placed checkpoints: %+v", r)
	}
}

func TestEmulateEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, body, _ := post(t, ts, "emulate", Request{Name: "sum", Source: sumProg, Options: fastOpts("schematic")})
	if code != http.StatusOK {
		t.Fatalf("emulate: status %d, body %s", code, body)
	}
	r := decode[EmulateResponse](t, body)
	if !r.Completed || r.Verdict != "completed" {
		t.Fatalf("verdict %q, want completed: %+v", r.Verdict, r)
	}
	if len(r.Output) != 1 {
		t.Errorf("output %v, want one printed value", r.Output)
	}
	if r.Energy.TotalNJ <= 0 || r.Energy.ComputeNJ <= 0 {
		t.Errorf("energy ledger empty: %+v", r.Energy)
	}
	if r.Steps <= 0 || r.Cycles <= 0 {
		t.Errorf("counters empty: %+v", r)
	}
}

func TestEmulateStream(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	opts := fastOpts("schematic")
	opts.Stream = true
	code, body, hdr := post(t, ts, "emulate", Request{Name: "sum", Source: sumProg, Options: opts})
	if code != http.StatusOK {
		t.Fatalf("stream: status %d, body %s", code, body)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q", ct)
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) < 2 {
		t.Fatalf("stream produced %d lines, want events + result", len(lines))
	}
	var last struct {
		Kind   string           `json:"kind"`
		Result *EmulateResponse `json:"result"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("terminal record: %v (%q)", err, lines[len(lines)-1])
	}
	if last.Kind != "result" || last.Result == nil || !last.Result.Completed {
		t.Fatalf("terminal record %+v, want completed result", last)
	}
	// Streams bypass the result cache.
	if s, _ := ts.Client().Get(ts.URL + "/healthz"); s != nil {
		s.Body.Close()
	}
}

func TestValidateEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, body, _ := post(t, ts, "validate", Request{Name: "sum", Source: sumProg, Options: fastOpts("schematic")})
	if code != http.StatusOK {
		t.Fatalf("validate: status %d, body %s", code, body)
	}
	if r := decode[ValidateResponse](t, body); !r.OK {
		t.Fatalf("validation failed: %+v", r)
	}
}

func TestHuntEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, body, _ := post(t, ts, "hunt", Request{Name: "sum", Source: sumProg, Options: fastOpts("schematic")})
	if code != http.StatusOK {
		t.Fatalf("hunt: status %d, body %s", code, body)
	}
	if r := decode[HuntResponse](t, body); !r.OK {
		t.Fatalf("hunt found a violation on a sound technique: %+v", r)
	}

	// Hunting without a placement technique is a request error.
	code, body, _ = post(t, ts, "hunt", Request{Name: "sum", Source: sumProg, Options: Options{Technique: "none"}})
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("hunt none: status %d, body %s", code, body)
	}
}

// TestAllNVMEveryEndpoint: allnvm is a documented technique value, so
// every job endpoint resolves it through the one technique lookup.
func TestAllNVMEveryEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, endpoint := range []string{"compile", "emulate", "validate", "hunt", "verify"} {
		code, body, _ := post(t, ts, endpoint, Request{Name: "sum", Source: sumProg, Options: fastOpts("allnvm")})
		if code != http.StatusOK {
			t.Errorf("%s allnvm: status %d, body %s", endpoint, code, body)
		}
	}
}

func TestVerifyEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	// A ratchet placement of the tiny program verifies exhaustively.
	req := Request{Name: "sum", Source: sumProg, Options: fastOpts("ratchet")}
	code, body, hdr := post(t, ts, "verify", req)
	if code != http.StatusOK {
		t.Fatalf("verify: status %d, body %s", code, body)
	}
	r := decode[VerifyResponse](t, body)
	if !r.OK || r.Verdict != "verified" {
		t.Fatalf("verify: %+v", r)
	}
	if r.States < 2 || r.Edges == 0 {
		t.Fatalf("degenerate exploration: %+v", r)
	}
	digest := hdr.Get("X-Schematic-Digest")

	// Resubmission is a cache hit with the identical body.
	misses := s.CacheStats().Misses
	code2, body2, hdr2 := post(t, ts, "verify", req)
	if code2 != http.StatusOK || !bytes.Equal(body, body2) {
		t.Fatalf("resubmit: status %d, body %s (want %s)", code2, body2, body)
	}
	if hdr2.Get("X-Schematic-Digest") != digest {
		t.Fatalf("resubmit digest %s != %s", hdr2.Get("X-Schematic-Digest"), digest)
	}
	if st := s.CacheStats(); st.Misses != misses || st.Hits == 0 {
		t.Fatalf("resubmit did not hit the cache: %+v", st)
	}

	// The search bounds participate in the digest (different options must
	// not collide with the unbounded run) and truncate the verdict.
	bounded := req
	bounded.Options.MaxStates = 2
	code, body, hdr = post(t, ts, "verify", bounded)
	if code != http.StatusOK {
		t.Fatalf("bounded verify: status %d, body %s", code, body)
	}
	if hdr.Get("X-Schematic-Digest") == digest {
		t.Fatal("bounded request shares the unbounded digest")
	}
	if r := decode[VerifyResponse](t, body); !r.OK || r.Verdict != "bounded" || r.Bound != "max-states" {
		t.Fatalf("bounded verify: %+v", r)
	}

	// A wait-style technique verifies via its contract.
	code, body, _ = post(t, ts, "verify", Request{Name: "sum", Source: sumProg, Options: fastOpts("schematic")})
	if code != http.StatusOK {
		t.Fatalf("verify schematic: status %d, body %s", code, body)
	}
	if r := decode[VerifyResponse](t, body); !r.OK || !r.WaitContract || r.Verdict != "verified" {
		t.Fatalf("wait-contract verify: %+v", r)
	}

	// Verifying without a placement technique is a request error.
	code, body, _ = post(t, ts, "verify", Request{Name: "sum", Source: sumProg, Options: Options{Technique: "none"}})
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("verify none: status %d, body %s", code, body)
	}

	// The verify jobs were registered and the metrics counters moved.
	if s.verifyStates.Load() == 0 {
		t.Fatal("verify state counter never moved")
	}
	resp, err := http.Get(ts.URL + "/v1/runs")
	if err != nil {
		t.Fatal(err)
	}
	listing, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("runs: status %d, err %v", resp.StatusCode, err)
	}
	runs := decode[RunsResponse](t, listing)
	var sawVerify bool
	for _, rs := range runs.Runs {
		if rs.Kind == "verify" && rs.Status == "done" && rs.Verdict != "" {
			sawVerify = true
		}
	}
	if !sawVerify {
		t.Fatalf("no finished verify run in registry: %+v", runs.Runs)
	}

	// The unbounded run's detail carries its search's final progress.
	resp, err = http.Get(ts.URL + "/v1/runs/" + digest)
	if err != nil {
		t.Fatal(err)
	}
	detailBody, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("run detail: status %d, err %v", resp.StatusCode, err)
	}
	detail := decode[RunDetail](t, detailBody)
	if sp := detail.Search; sp == nil || sp.States != r.States || sp.Edges != r.Edges || sp.DedupHits != r.DedupHits {
		t.Fatalf("verify run detail search = %+v, want the report's %d states, %d edges, %d dedup hits",
			detail.Search, r.States, r.Edges, r.DedupHits)
	}
}

func TestBenchByName(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, body, _ := post(t, ts, "compile", Request{Bench: "crc", Options: Options{Technique: "none"}})
	if code != http.StatusOK {
		t.Fatalf("bench compile: status %d, body %s", code, body)
	}
	if r := decode[CompileResponse](t, body); r.Name != "crc" {
		t.Errorf("bench name %q, want crc", r.Name)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := ts.Client().Post(ts.URL+"/v1/compile", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: status %d", resp.StatusCode)
	}

	for _, bad := range []Request{
		{}, // no source
		{Source: sumProg, Options: Options{Technique: "quantum"}}, // unknown technique
		{Source: sumProg, Bench: "crc"},                           // mutually exclusive
		{Bench: "no-such-benchmark"},                              // unknown benchmark
		{Source: sumProg, Options: Options{TBPF: -1}},             // negative knob
	} {
		if code, body, _ := post(t, ts, "compile", bad); code != http.StatusBadRequest {
			t.Errorf("request %+v: status %d, body %s", bad, code, body)
		}
	}

	// A negative model-checker bound fails verify.Options.Validate, and
	// the body stays the one the daemon has always sent.
	for _, o := range []Options{{Technique: "ratchet", MaxStates: -1}, {Technique: "ratchet", MaxDepth: -1}} {
		want := `{"error":"max_states and max_depth must not be negative"}` + "\n"
		if code, body, _ := post(t, ts, "verify", Request{Bench: "crc", Options: o}); code != http.StatusBadRequest || string(body) != want {
			t.Errorf("verify %+v: status %d, body %q; want 400, %q", o, code, body, want)
		}
	}

	// A program that does not compile is the request's fault: 422.
	if code, body, _ := post(t, ts, "compile", Request{Source: "func void main() { oops }"}); code != http.StatusUnprocessableEntity {
		t.Errorf("bad program: status %d, body %s", code, body)
	}

	// Method patterns: GET on a job endpoint is 405.
	resp, err = ts.Client().Get(ts.URL + "/v1/compile")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET job endpoint: status %d", resp.StatusCode)
	}
}

// TestDigestNormalization: requests that differ only in default
// spellings share one content address, so the second is a cache hit.
func TestDigestNormalization(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	a := Request{Name: "sum", Source: sumProg,
		Options: Options{Technique: "", TBPF: 500, ProfileRuns: 2, VMSize: 0, Seed: 0}}
	b := Request{Name: "sum", Source: sumProg,
		Options: Options{Technique: "Schematic", TBPF: 500, ProfileRuns: 2, VMSize: 2048, Seed: 1}}
	c1, body1, _ := post(t, ts, "compile", a)
	c2, body2, _ := post(t, ts, "compile", b)
	if c1 != 200 || c2 != 200 {
		t.Fatalf("status %d/%d", c1, c2)
	}
	if !bytes.Equal(body1, body2) {
		t.Errorf("equivalent requests returned different bodies")
	}
	cs := s.CacheStats()
	if cs.Misses != 1 || cs.Hits != 1 {
		t.Errorf("cache stats %+v, want 1 miss + 1 hit", cs)
	}

	// Options an endpoint does not read leave its digest alone; options
	// it reads split it.
	digest := func(kind string, o Options) string {
		t.Helper()
		d, err := DigestOf(kind, Request{Name: "sum", Source: sumProg, Options: o})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	vm := func(size int) Options {
		o := fastOpts("ratchet")
		o.VMSize = size
		return o
	}
	if digest("hunt", vm(2048)) != digest("hunt", vm(4096)) {
		t.Error("vm_size split a hunt digest; hunts run at their own SVM")
	}
	if digest("emulate", vm(2048)) == digest("emulate", vm(4096)) {
		t.Error("vm_size did not split an emulate digest")
	}
	if digest("validate", Options{EB: 500}) != digest("validate", Options{}) {
		t.Error("eb_nj split a validate digest; validate derives its budget from tbpf")
	}
}

// TestSingleFlightDedup: N identical concurrent submissions run the
// pipeline exactly once — the acceptance criterion for content-addressed
// coalescing, proven by the cache counters and the run counter.
func TestSingleFlightDedup(t *testing.T) {
	const n = 16
	s, ts := newTestServer(t, Config{Workers: 4})
	var runs atomic.Int64
	release := make(chan struct{})
	s.gate = func(string) {
		runs.Add(1)
		<-release
	}

	req := Request{Name: "sum", Source: sumProg, Options: fastOpts("schematic")}
	codes := make(chan int, n)
	bodies := make(chan string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, body, _ := post(t, ts, "emulate", req)
			codes <- code
			bodies <- string(body)
		}()
	}
	// One leader reaches the gate; the other 15 coalesce onto its entry.
	waitFor(t, "leader at gate", func() bool { return runs.Load() == 1 })
	waitFor(t, "15 coalesced followers", func() bool { return s.CacheStats().Coalesced == 15 })
	close(release)
	wg.Wait()
	close(codes)
	close(bodies)

	for code := range codes {
		if code != http.StatusOK {
			t.Fatalf("burst member got status %d", code)
		}
	}
	first := ""
	for b := range bodies {
		if first == "" {
			first = b
		} else if b != first {
			t.Fatalf("coalesced responses differ:\n%s\n%s", first, b)
		}
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("pipeline ran %d times for %d identical requests", got, n)
	}
	cs := s.CacheStats()
	if cs.Misses != 1 || cs.Coalesced != 15 {
		t.Fatalf("cache stats %+v, want misses=1 coalesced=15", cs)
	}

	// A repeat after completion is a plain hit.
	if code, _, _ := post(t, ts, "emulate", req); code != http.StatusOK {
		t.Fatalf("post-burst repeat: status %d", code)
	}
	if cs := s.CacheStats(); cs.Hits != 1 {
		t.Fatalf("cache stats %+v, want 1 hit", cs)
	}
}

// TestQueueFull429: with one worker and a one-deep queue, a third
// distinct request is rejected with 429 + Retry-After.
func TestQueueFull429(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueCap: 1})
	release := make(chan struct{})
	var entered atomic.Int64
	s.gate = func(string) {
		entered.Add(1)
		<-release
	}

	mk := func(seed int64) Request {
		o := fastOpts("none")
		o.Seed = seed
		return Request{Name: "sum", Source: sumProg, Options: o}
	}
	type result struct {
		code int
		body string
	}
	results := make(chan result, 2)
	for i := int64(1); i <= 2; i++ {
		req := mk(i)
		go func() {
			code, body, _ := post(t, ts, "compile", req)
			results <- result{code, string(body)}
		}()
		if i == 1 {
			waitFor(t, "first job holding the worker", func() bool { return entered.Load() == 1 })
		} else {
			waitFor(t, "second job queued", func() bool { return s.queued.Load() == 1 })
		}
	}

	code, body, hdr := post(t, ts, "compile", mk(3))
	if code != http.StatusTooManyRequests {
		t.Fatalf("third request: status %d, body %s", code, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Errorf("429 without Retry-After header")
	}

	close(release)
	for i := 0; i < 2; i++ {
		if r := <-results; r.code != http.StatusOK {
			t.Fatalf("admitted request failed: %d %s", r.code, r.body)
		}
	}
}

// TestDrainBurst: 64 concurrent mixed requests are all admitted, the
// server starts draining mid-flight, new work is refused with 503, and
// every admitted request still completes — zero dropped in-flight jobs.
// The /metrics ledger must reconcile with the client-observed responses.
func TestDrainBurst(t *testing.T) {
	const n = 64
	const workers = 8
	s, ts := newTestServer(t, Config{Workers: workers, QueueCap: n})
	release := make(chan struct{})
	s.gate = func(string) { <-release }

	kinds := []string{"compile", "emulate", "validate", "hunt"}
	type outcome struct {
		kind string
		code int
		body string
	}
	results := make(chan outcome, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		kind := kinds[i%len(kinds)]
		o := fastOpts("schematic")
		o.Seed = int64(i + 1) // distinct digests: every request is a leader
		req := Request{Name: "sum", Source: sumProg, Options: o}
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, body, _ := post(t, ts, kind, req)
			results <- outcome{kind, code, string(body)}
		}()
	}

	// All 64 admitted: the pool is saturated and the rest are queued.
	waitFor(t, "burst fully admitted", func() bool {
		return s.inflight.Load() == workers && s.queued.Load() == n-workers
	})
	s.BeginDrain()

	// New work is refused while draining...
	code, body, _ := post(t, ts, "compile", Request{Name: "sum", Source: sumProg, Options: fastOpts("none")})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain request: status %d, body %s", code, body)
	}
	// ...but observability endpoints still answer.
	hr, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hbody, _ := io.ReadAll(hr.Body)
	hr.Body.Close()
	if h := decode[Health](t, hbody); h.Status != "draining" {
		t.Errorf("healthz during drain: %+v", h)
	}

	close(release)
	wg.Wait()
	close(results)

	tally := map[[2]string]int64{} // {endpoint, code} -> count
	for r := range results {
		if r.code != http.StatusOK {
			t.Errorf("dropped in-flight job: %s got %d: %s", r.kind, r.code, r.body)
		}
		tally[[2]string{r.kind, strconv.Itoa(r.code)}]++
	}
	tally[[2]string{"compile", "503"}]++ // the refused post-drain probe

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain after burst: %v", err)
	}

	// The metrics ledger must agree with what the clients saw.
	mr, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mr.Body)
	mr.Body.Close()
	metricsTally := parseRequestTotals(t, string(mbody))
	for k, want := range tally {
		if got := metricsTally[k]; got != want {
			t.Errorf("metrics ledger %v: got %d, want %d", k, got, want)
		}
	}
	for k := range metricsTally {
		if _, ok := tally[k]; !ok {
			t.Errorf("metrics ledger has unexplained series %v", k)
		}
	}
	for _, line := range []string{"schematicd_queue_depth 0", "schematicd_inflight_jobs 0", "schematicd_draining 1"} {
		if !strings.Contains(string(mbody), line) {
			t.Errorf("metrics missing %q", line)
		}
	}
}

var requestTotalRE = regexp.MustCompile(`(?m)^schematicd_requests_total\{endpoint="(\w+)",code="(\d+)"\} (\d+)$`)

func parseRequestTotals(t *testing.T, text string) map[[2]string]int64 {
	t.Helper()
	out := map[[2]string]int64{}
	for _, m := range requestTotalRE.FindAllStringSubmatch(text, -1) {
		v, err := strconv.ParseInt(m[3], 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		out[[2]string{m[1], m[2]}] = v
	}
	return out
}

// TestJobTimeout: a request deadline expires, the job reports 504, and
// the outcome is not cached (the next identical request recomputes).
func TestJobTimeout(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.gate = func(string) { time.Sleep(50 * time.Millisecond) }

	o := fastOpts("schematic")
	o.TimeoutMS = 10
	req := Request{Name: "sum", Source: sumProg, Options: o}
	code, body, _ := post(t, ts, "emulate", req)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("timed-out job: status %d, body %s", code, body)
	}
	cs := s.CacheStats()
	if cs.Misses != 1 {
		t.Fatalf("cache stats %+v", cs)
	}

	// Uncacheable: retrying is a fresh miss, and without the stall the
	// job now completes.
	s.gate = nil
	if code, body, _ = post(t, ts, "emulate", req); code != http.StatusGatewayTimeout {
		// The 10ms budget may or may not suffice on a loaded machine;
		// accept success but never a stale cached 504... which would be
		// a 504 with zero elapsed time. Either way the cache must show a
		// second miss.
		if code != http.StatusOK {
			t.Fatalf("retry: status %d, body %s", code, body)
		}
	}
	if cs := s.CacheStats(); cs.Misses != 2 || cs.Hits != 0 {
		t.Fatalf("timeout outcome was cached: %+v", cs)
	}
}

// TestHealthz covers the steady-state health report.
func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 3})
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	h := decode[Health](t, body)
	if h.Status != "ok" || h.Workers != 3 || h.Inflight != 0 || h.QueueDepth != 0 {
		t.Fatalf("healthz %+v", h)
	}
}

// TestCacheEviction: the result cache honors its LRU bound and counts
// evictions.
func TestCacheEviction(t *testing.T) {
	s, ts := newTestServer(t, Config{CacheCap: 2})
	for seed := int64(1); seed <= 3; seed++ {
		o := fastOpts("none")
		o.Seed = seed
		if code, body, _ := post(t, ts, "compile", Request{Name: "sum", Source: sumProg, Options: o}); code != 200 {
			t.Fatalf("seed %d: status %d, body %s", seed, code, body)
		}
	}
	cs := s.CacheStats()
	if cs.Evictions != 1 || s.cache.Len() != 2 {
		t.Fatalf("cache stats %+v len %d, want 1 eviction and 2 entries", cs, s.cache.Len())
	}
	// Seed 1 was evicted: repeating it is a miss, not a hit.
	o := fastOpts("none")
	o.Seed = 1
	if code, _, _ := post(t, ts, "compile", Request{Name: "sum", Source: sumProg, Options: o}); code != 200 {
		t.Fatal("re-request failed")
	}
	if cs := s.CacheStats(); cs.Misses != 4 || cs.Hits != 0 {
		t.Fatalf("evicted entry still served: %+v", cs)
	}
}

// TestRunEmulateValidatesEarly: a config the emulator would reject must
// bounce out of runEmulate as a 422-class progError before the
// compile/profile/placement pipeline runs — the HTTP normalize layer
// guards the same fields, but the pipeline must not rely on it.
func TestRunEmulateValidatesEarly(t *testing.T) {
	req := &Request{Name: "sum", Source: sumProg}
	req.Options.Technique = "none"
	req.Options.VMSize = -8
	_, err := New(Config{}).runEmulate(context.Background(), req, "digest", nil)
	if !errors.Is(err, emulator.ErrInvalidConfig) {
		t.Fatalf("runEmulate with vm_size=-8: got %v, want ErrInvalidConfig", err)
	}
	var pe *progError
	if !errors.As(err, &pe) {
		t.Fatalf("config rejection is not a progError (would not map to 422): %v", err)
	}
}
