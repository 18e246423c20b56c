package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
)

// postGrid sends one grid request and returns status, body, and headers.
func postGrid(t *testing.T, ts *httptest.Server, greq GridRequest) (int, []byte, http.Header) {
	t.Helper()
	body, err := json.Marshal(greq)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/grid", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes(), resp.Header
}

// smallGrid is a cheap 1×2×1 matrix used across the grid tests.
func smallGrid() GridRequest {
	return GridRequest{
		Benches:    []string{"crc"},
		Techniques: []string{"schematic", "ratchet"},
		TBPFs:      []int64{500},
		Options:    Options{ProfileRuns: 2},
	}
}

func TestGridEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	code, body, hdr := postGrid(t, ts, smallGrid())
	if code != http.StatusOK {
		t.Fatalf("grid: status %d, body %s", code, body)
	}
	resp := decode[GridResponse](t, body)
	if hdr.Get("X-Schematic-Digest") != resp.Digest || len(resp.Digest) != 64 {
		t.Errorf("digest header %q vs body %q", hdr.Get("X-Schematic-Digest"), resp.Digest)
	}
	if resp.CellsTotal != 2 || len(resp.Cells) != 2 {
		t.Fatalf("cells: total %d, len %d, want 2", resp.CellsTotal, len(resp.Cells))
	}
	if resp.CellsComputed != 2 || resp.CellErrors != 0 {
		t.Fatalf("cold grid: computed %d errors %d, want 2/0", resp.CellsComputed, resp.CellErrors)
	}
	// Table order is bench-major, then technique, then TBPF.
	if resp.Cells[0].Technique != "schematic" || resp.Cells[1].Technique != "ratchet" {
		t.Errorf("cell order: %s, %s", resp.Cells[0].Technique, resp.Cells[1].Technique)
	}
	for i, c := range resp.Cells {
		if c.Bench != "crc" || c.TBPF != 500 || c.Source != "computed" {
			t.Errorf("cell %d: %+v", i, c)
		}
		if c.Result == nil || c.Result.Verdict == "" {
			t.Errorf("cell %d missing result", i)
		}
		if len(c.Digest) != 64 {
			t.Errorf("cell %d digest %q", i, c.Digest)
		}
	}
	if resp.Cells[0].Digest == resp.Cells[1].Digest {
		t.Error("distinct cells share a digest")
	}

	// A repeat reassembles entirely from the in-memory tier and says so.
	code, body, _ = postGrid(t, ts, smallGrid())
	if code != http.StatusOK {
		t.Fatalf("warm grid: status %d, body %s", code, body)
	}
	warm := decode[GridResponse](t, body)
	if warm.CellsComputed != 0 || warm.CellsFromCache != 2 {
		t.Fatalf("warm grid: computed %d cache %d, want 0/2", warm.CellsComputed, warm.CellsFromCache)
	}
	if warm.Digest != resp.Digest {
		t.Error("same matrix, different grid digest")
	}
	if s.gridRuns.Load() != 2 {
		t.Errorf("grid runs counter %d, want 2", s.gridRuns.Load())
	}

	// The grid registered as kind=grid and retains its table.
	rresp, err := ts.Client().Get(ts.URL + "/v1/runs/" + resp.Digest)
	if err != nil {
		t.Fatal(err)
	}
	var dbuf bytes.Buffer
	_, _ = dbuf.ReadFrom(rresp.Body)
	rresp.Body.Close()
	detail := decode[RunDetail](t, dbuf.Bytes())
	if detail.Kind != "grid" || detail.Status != "done" || detail.Grid == nil {
		t.Fatalf("grid run detail: kind=%q status=%q grid=%v", detail.Kind, detail.Status, detail.Grid != nil)
	}
	if detail.Grid.CellsTotal != 2 {
		t.Errorf("retained grid table has %d cells", detail.Grid.CellsTotal)
	}
}

// TestGridCellDedup: overlapping grids share cells — the overlap is
// served from the cache, proven by the per-source counters.
func TestGridCellDedup(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	a := smallGrid() // crc × {schematic, ratchet}
	if code, body, _ := postGrid(t, ts, a); code != http.StatusOK {
		t.Fatalf("grid a: status %d, body %s", code, body)
	}

	b := smallGrid()
	b.Techniques = []string{"ratchet", "mementos"} // overlaps on ratchet
	code, body, _ := postGrid(t, ts, b)
	if code != http.StatusOK {
		t.Fatalf("grid b: status %d, body %s", code, body)
	}
	resp := decode[GridResponse](t, body)
	if resp.CellsFromCache != 1 || resp.CellsComputed != 1 {
		t.Fatalf("overlap grid: cache %d computed %d, want 1/1", resp.CellsFromCache, resp.CellsComputed)
	}
	for _, c := range resp.Cells {
		want := "computed"
		if c.Technique == "ratchet" {
			want = "cache"
		}
		if c.Source != want {
			t.Errorf("cell %s source %q, want %q", c.Technique, c.Source, want)
		}
	}
	if s.gridCellCache.Load() != 1 || s.gridCellComputed.Load() != 3 {
		t.Errorf("cell counters: cache %d computed %d, want 1/3",
			s.gridCellCache.Load(), s.gridCellComputed.Load())
	}

	// A plain POST /v1/emulate of an overlapping cell is also a hit: grid
	// cells and single requests share one content address space.
	req := Request{Bench: "crc", Options: Options{Technique: "ratchet", TBPF: 500, ProfileRuns: 2}}
	hitsBefore := s.CacheStats().Hits
	if code, body, _ := post(t, ts, "emulate", req); code != http.StatusOK {
		t.Fatalf("emulate overlap: status %d, body %s", code, body)
	}
	if s.CacheStats().Hits != hitsBefore+1 {
		t.Error("plain emulate did not hit the grid-filled cache")
	}
}

// TestGridStoreRestartZeroRecompute is the acceptance criterion: a grid
// submitted against a restarted daemon sharing the first daemon's store
// directory recomputes zero cells, proven by the store-hit counters.
func TestGridStoreRestartZeroRecompute(t *testing.T) {
	dir := t.TempDir()
	_, ts1 := newTestServer(t, Config{Store: openTestStore(t, dir)})
	code, body, _ := postGrid(t, ts1, smallGrid())
	if code != http.StatusOK {
		t.Fatalf("cold grid: status %d, body %s", code, body)
	}
	cold := decode[GridResponse](t, body)
	if cold.CellsComputed != 2 {
		t.Fatalf("cold grid computed %d cells, want 2", cold.CellsComputed)
	}

	s2, ts2 := newTestServer(t, Config{Store: openTestStore(t, dir)})
	var ran atomic.Int64
	s2.gate = func(string) { ran.Add(1) }
	code, body, _ = postGrid(t, ts2, smallGrid())
	if code != http.StatusOK {
		t.Fatalf("restarted grid: status %d, body %s", code, body)
	}
	resp := decode[GridResponse](t, body)
	if resp.CellsComputed != 0 || resp.CellsFromStore != 2 {
		t.Fatalf("restarted grid: computed %d store %d, want 0/2", resp.CellsComputed, resp.CellsFromStore)
	}
	if ran.Load() != 0 {
		t.Fatalf("restarted grid ran %d pipeline jobs, want 0", ran.Load())
	}
	if st := s2.StoreStats(); st.Hits != 2 {
		t.Fatalf("restarted store stats %+v, want 2 hits", st)
	}
	// The cold and warm tables agree cell for cell.
	for i := range cold.Cells {
		c, w := cold.Cells[i], resp.Cells[i]
		if c.Digest != w.Digest || c.Result.Cycles != w.Result.Cycles || c.Result.Verdict != w.Result.Verdict {
			t.Errorf("cell %d diverged across restart: %+v vs %+v", i, c, w)
		}
	}
}

// TestGridSSEProgress: the run's event stream carries exactly one
// "cell" frame per cell, then the terminal grid table.
func TestGridSSEProgress(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	greq := smallGrid()
	cells, gridDigest, err := s.normalizeGrid(&greq)
	if err != nil {
		t.Fatal(err)
	}

	if code, body, _ := postGrid(t, ts, smallGrid()); code != http.StatusOK {
		t.Fatalf("grid: status %d, body %s", code, body)
	}
	status, stream := sseGet(t, ts.URL+"/v1/runs/"+gridDigest+"/events", -1)
	if status != http.StatusOK {
		t.Fatalf("events: status %d", status)
	}
	if got := strings.Count(stream, "event: cell\n"); got != len(cells) {
		t.Errorf("stream carries %d cell events, want %d:\n%s", got, len(cells), stream)
	}
	if !strings.Contains(stream, "event: result") || !strings.Contains(stream, `"cells_total":2`) {
		t.Errorf("stream missing terminal grid record: %q", tail(stream, 300))
	}
	if !strings.Contains(stream, `"done":1,"total":2`) || !strings.Contains(stream, `"done":2,"total":2`) {
		t.Errorf("cell events missing monotonic done counts: %q", stream)
	}

	// Resume past the first cell: exactly one cell frame plus terminal.
	_, resumed := sseGet(t, ts.URL+"/v1/runs/"+gridDigest+"/events", 1)
	if got := strings.Count(resumed, "event: cell\n"); got != 1 {
		t.Errorf("resume from id 1: %d cell events, want 1:\n%s", got, resumed)
	}

	// An id past the last cell is caught up: no cell frame, and the
	// terminal record keeps its id, one past the last cell.
	for _, id := range []int64{math.MaxInt64, int64(len(cells)) + 5} {
		_, caughtUp := sseGet(t, ts.URL+"/v1/runs/"+gridDigest+"/events", id)
		if got := strings.Count(caughtUp, "event: cell\n"); got != 0 {
			t.Errorf("resume from id %d: %d cell events, want none:\n%s", id, got, caughtUp)
		}
		if want := fmt.Sprintf("id: %d\nevent: result\n", len(cells)+1); !strings.Contains(caughtUp, want) {
			t.Errorf("resume from id %d: no terminal record %q:\n%s", id, want, caughtUp)
		}
	}
}

// TestGridCellOrder: the cells of a grid run concurrently, yet every
// cell frame's done is its id, the cell's 1-based position in the grid's
// log, and a resume from each id replays exactly the cells after it and
// then the terminal record.
func TestGridCellOrder(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	greq := GridRequest{
		Benches:    []string{"crc"},
		Techniques: []string{"schematic", "ratchet", "rockclimb", "allnvm"},
		TBPFs:      []int64{500, 1000},
		Options:    Options{ProfileRuns: 2},
	}
	code, body, _ := postGrid(t, ts, greq)
	if code != http.StatusOK {
		t.Fatalf("grid: status %d, body %s", code, body)
	}
	resp := decode[GridResponse](t, body)
	n := resp.CellsTotal
	if n < 8 {
		t.Fatalf("grid has %d cells, want at least 8", n)
	}
	eventsURL := ts.URL + "/v1/runs/" + resp.Digest + "/events"
	_, full := sseGet(t, eventsURL, -1)
	frames := strings.SplitAfter(full, "\n\n")
	frames = frames[:len(frames)-1] // the empty string after the last frame
	if len(frames) != n+1 {
		t.Fatalf("stream has %d frames, want %d cells and the terminal record:\n%s", len(frames), n, full)
	}
	seen := make(map[int]bool)
	for k, fr := range frames[:n] {
		head, data, _ := strings.Cut(fr, "\ndata: ")
		if want := fmt.Sprintf("id: %d\nevent: cell", k+1); head != want {
			t.Fatalf("frame %d opens %q, want %q", k, head, want)
		}
		var cell gridCellEvent
		if err := json.Unmarshal([]byte(data), &cell); err != nil {
			t.Fatalf("frame %d: %v", k, err)
		}
		if cell.Done != k+1 || cell.Total != n {
			t.Errorf("cell frame id %d carries done %d of %d", k+1, cell.Done, cell.Total)
		}
		seen[cell.I] = true
	}
	if len(seen) != n {
		t.Errorf("the stream names %d distinct cells, want %d", len(seen), n)
	}
	for from := 0; from <= n; from++ {
		if _, got := sseGet(t, eventsURL, int64(from)); got != strings.Join(frames[from:], "") {
			t.Errorf("resume from id %d:\n got %q\nwant the stream's last %d frames", from, got, n+1-from)
		}
	}
}

// TestGridClientDisconnect: the grid's client goes away mid-run; the
// cell a plain request coalesced onto still completes and that follower
// gets its 200. Admitted grids run to completion regardless of the
// submitting client.
func TestGridClientDisconnect(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	s.gate = func(string) {
		entered <- struct{}{}
		<-release
	}

	greq := GridRequest{
		Benches:    []string{"crc"},
		Techniques: []string{"schematic"},
		TBPFs:      []int64{500},
		Options:    Options{ProfileRuns: 2},
	}
	body, _ := json.Marshal(greq)
	ctx, cancel := context.WithCancel(context.Background())
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/grid", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	gridErr := make(chan error, 1)
	go func() {
		resp, err := ts.Client().Do(httpReq)
		if err == nil {
			resp.Body.Close()
		}
		gridErr <- err
	}()
	<-entered // the grid's only cell is now the in-flight leader

	// A plain emulate of the same cell coalesces onto it.
	followerDone := make(chan int, 1)
	go func() {
		code, _, _ := post(t, ts, "emulate",
			Request{Bench: "crc", Options: Options{Technique: "schematic", TBPF: 500, ProfileRuns: 2}})
		followerDone <- code
	}()
	waitFor(t, "follower coalesces", func() bool { return s.CacheStats().Coalesced >= 1 })

	cancel() // the grid's client disconnects mid-run
	if err := <-gridErr; err == nil {
		t.Fatal("cancelled grid request unexpectedly returned a response")
	}
	close(release) // let the cell finish

	if code := <-followerDone; code != http.StatusOK {
		t.Fatalf("coalesced follower: status %d, want 200 despite grid client disconnect", code)
	}
	// The grid itself also ran to completion and retained its table.
	waitFor(t, "grid table retained", func() bool {
		greq := smallGrid()
		greq.Techniques = []string{"schematic"}
		_, digest, err := s.normalizeGrid(&greq)
		if err != nil {
			t.Fatal(err)
		}
		rs := s.runs.lookup(digest)
		if rs == nil {
			return false
		}
		rs.mu.Lock()
		defer rs.mu.Unlock()
		return rs.status == "done" && rs.gridResult != nil && rs.gridResult.CellsComputed == 1
	})
}

// TestGridDrain: BeginDrain mid-grid refuses new grids with 503 but the
// admitted grid finishes with its full table.
func TestGridDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	entered := make(chan struct{}, 2)
	release := make(chan struct{})
	s.gate = func(string) {
		entered <- struct{}{}
		<-release
	}

	type result struct {
		code int
		body []byte
	}
	done := make(chan result, 1)
	go func() {
		code, body, _ := postGrid(t, ts, smallGrid())
		done <- result{code, body}
	}()
	<-entered // at least one cell is computing

	s.BeginDrain()
	if code, body, _ := postGrid(t, ts, smallGrid()); code != http.StatusServiceUnavailable {
		t.Fatalf("grid during drain: status %d, body %s", code, body)
	}
	close(release)

	r := <-done
	if r.code != http.StatusOK {
		t.Fatalf("admitted grid after drain: status %d, body %s", r.code, r.body)
	}
	resp := decode[GridResponse](t, r.body)
	if resp.CellsTotal != 2 || resp.CellsComputed+resp.CellsFromCache+resp.CellsCoalesced != 2 || resp.CellErrors != 0 {
		t.Fatalf("drained grid table incomplete: %+v", resp)
	}
	ctx, cancelCtx := context.WithTimeout(context.Background(), 20e9)
	defer cancelCtx()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain did not finish with grid done: %v", err)
	}
}

// TestGridValidation covers the 400 paths: axis knobs in options,
// unknown axis values, and the cell cap.
func TestGridValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{GridCellCap: 3})
	cases := []struct {
		name string
		greq GridRequest
	}{
		{"technique in options", GridRequest{Benches: []string{"crc"}, Options: Options{Technique: "schematic"}}},
		{"tbpf in options", GridRequest{Benches: []string{"crc"}, Options: Options{TBPF: 500}}},
		{"eb in options", GridRequest{Benches: []string{"crc"}, Options: Options{EB: 1}}},
		{"stream in options", GridRequest{Benches: []string{"crc"}, Options: Options{Stream: true}}},
		{"unknown bench", GridRequest{Benches: []string{"nope"}, Techniques: []string{"schematic"}, TBPFs: []int64{500}}},
		{"unknown technique", GridRequest{Benches: []string{"crc"}, Techniques: []string{"nope"}, TBPFs: []int64{500}}},
		{"nonpositive tbpf", GridRequest{Benches: []string{"crc"}, Techniques: []string{"schematic"}, TBPFs: []int64{0}}},
		{"cell cap", GridRequest{Benches: []string{"crc"}, Techniques: []string{"schematic", "ratchet"}, TBPFs: []int64{500, 1000}}},
	}
	for _, tc := range cases {
		if code, body, _ := postGrid(t, ts, tc.greq); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, body %s, want 400", tc.name, code, body)
		}
	}
}

// TestGridAndEmulateCoalesce: a grid cell and a plain emulate of the
// same cell share one in-flight run, whichever of the two arrives first.
func TestGridAndEmulateCoalesce(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	entered := make(chan struct{})
	release := make(chan struct{})
	s.gate = func(string) {
		entered <- struct{}{}
		<-release
	}
	grid := func(technique string) []byte {
		code, body, _ := postGrid(t, ts, GridRequest{
			Benches: []string{"crc"}, Techniques: []string{technique}, TBPFs: []int64{500},
			Options: Options{ProfileRuns: 2},
		})
		if code != http.StatusOK {
			t.Errorf("grid %s: status %d, body %s", technique, code, body)
		}
		return body
	}
	emulate := func(technique string) []byte {
		code, body, _ := post(t, ts, "emulate",
			Request{Bench: "crc", Options: Options{Technique: technique, TBPF: 500, ProfileRuns: 2}})
		if code != http.StatusOK {
			t.Errorf("emulate %s: status %d, body %s", technique, code, body)
		}
		return body
	}
	// pair starts the leader, holds it at the gate until the follower
	// has coalesced onto it, and returns the leader's and the follower's
	// bodies.
	pair := func(leader, follower func() []byte) ([]byte, []byte) {
		before := s.CacheStats()
		leaderBody, followerBody := make(chan []byte, 1), make(chan []byte, 1)
		go func() { leaderBody <- leader() }()
		<-entered
		go func() { followerBody <- follower() }()
		waitFor(t, "follower coalesces", func() bool { return s.CacheStats().Coalesced == before.Coalesced+1 })
		release <- struct{}{}
		a, b := <-leaderBody, <-followerBody
		if got := s.CacheStats().Misses - before.Misses; got != 1 {
			t.Errorf("the pair ran the pipeline %d times, want 1", got)
		}
		return a, b
	}

	// sameAnswer reports whether a cell carries the emulate's body.
	sameAnswer := func(cell GridCellResult, emuBody []byte) bool {
		b, err := json.Marshal(cell.Result)
		return err == nil && bytes.Equal(b, bytes.TrimSpace(emuBody))
	}

	// A grid cell arriving while an identical emulate computes.
	emuBody, gridBody := pair(func() []byte { return emulate("schematic") }, func() []byte { return grid("schematic") })
	g := decode[GridResponse](t, gridBody)
	if c := g.Cells[0]; c.Source != "coalesced" || g.CellsCoalesced != 1 || !sameAnswer(c, emuBody) {
		t.Errorf("grid cell coalesced onto an emulate: source %q, coalesced %d, result %+v", c.Source, g.CellsCoalesced, c.Result)
	}

	// An emulate arriving while an identical grid cell computes.
	gridBody, emuBody = pair(func() []byte { return grid("ratchet") }, func() []byte { return emulate("ratchet") })
	g = decode[GridResponse](t, gridBody)
	if c := g.Cells[0]; c.Source != "computed" || !sameAnswer(c, emuBody) {
		t.Errorf("emulate coalesced onto a grid cell: cell source %q, cell %+v, emulate %s", c.Source, c.Result, emuBody)
	}
}
