package server

import (
	"bufio"
	"context"
	"io"
	"math"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"schematic/internal/emulator"
	"schematic/internal/obs"
)

// observedOpts is fastOpts plus the live-console instrumentation.
func observedOpts(technique string) Options {
	o := fastOpts(technique)
	o.Observe = true
	return o
}

// startRun registers a fresh emulate-kind run the way runEmulateJob
// does — the test-side shorthand for newRunState + register.
func startRun(g *runRegistry, digest string, req *Request, hub *obs.Hub[emulator.Event], coll *obs.Collector) *runState {
	rs := newRunState("emulate", digest, req.Name, req.Options.Technique)
	rs.observed = hub != nil
	rs.hub = hub
	rs.coll = coll
	return g.register(rs)
}

func TestRunRegistryEviction(t *testing.T) {
	g := newRunRegistry(2)
	req := &Request{Name: "p", Options: Options{Technique: "schematic"}}

	a := startRun(g, "aaaaaaaa11111111", req, nil, nil)
	a.finish(&EmulateResponse{Verdict: "completed"}, nil)
	b := startRun(g, "aaaaaaaa22222222", req, nil, nil)
	b.finish(nil, context.DeadlineExceeded)
	c := startRun(g, "cccccccc33333333", req, nil, nil) // evicts a
	if g.len() != 2 {
		t.Fatalf("len %d after cap-2 overflow, want 2", g.len())
	}
	if g.lookup("aaaaaaaa11111111") != nil {
		t.Error("oldest finished run not evicted")
	}
	if g.lookup("aaaaaaaa22222222") != b || g.lookup("cccccccc33333333") != c {
		t.Error("younger runs evicted")
	}

	// Running runs are never evicted, even past cap.
	d := startRun(g, "dddddddd44444444", req, nil, nil)
	e := startRun(g, "eeeeeeee55555555", req, nil, nil)
	if !c.running() || !d.running() || !e.running() {
		t.Fatal("fixture: expected running runs")
	}
	for _, rs := range []*runState{c, d, e} {
		if g.lookup(rs.digest) != rs {
			t.Errorf("running run %s evicted", rs.digest[:8])
		}
	}

	// Prefix lookup on a roomier registry: unique resolves, ambiguous
	// and short do not.
	p := newRunRegistry(8)
	x := startRun(p, "aaaaaaaa11111111", req, nil, nil)
	startRun(p, "aaaaaaaa22222222", req, nil, nil)
	y := startRun(p, "cccccccc33333333", req, nil, nil)
	if p.lookup("cccccccc") != y {
		t.Error("unique 8-char prefix did not resolve")
	}
	if p.lookup("aaaaaaaa") != nil {
		t.Error("ambiguous prefix resolved")
	}
	if p.lookup("ccc") != nil {
		t.Error("short prefix resolved")
	}

	// A finished run is superseded by a re-run; a running one is not.
	if startRun(p, "aaaaaaaa11111111", req, nil, nil) != nil {
		t.Error("second run registered while first still running")
	}
	x.finish(&EmulateResponse{}, nil)
	if x2 := startRun(p, "aaaaaaaa11111111", req, nil, nil); x2 == nil || p.lookup("aaaaaaaa11111111") != x2 {
		t.Error("finished run not superseded by re-run")
	}
}

func TestRunsAPIAndSiteAttribution(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, body, hdr := post(t, ts, "emulate", Request{Name: "sum", Source: sumProg, Options: observedOpts("schematic")})
	if code != http.StatusOK {
		t.Fatalf("emulate: status %d, body %s", code, body)
	}
	res := decode[EmulateResponse](t, body)
	digest := hdr.Get("X-Schematic-Digest")
	if digest == "" {
		t.Fatal("no digest header")
	}

	resp, err := http.Get(ts.URL + "/v1/runs")
	if err != nil {
		t.Fatal(err)
	}
	listBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	list := decode[RunsResponse](t, listBody)
	if len(list.Runs) != 1 {
		t.Fatalf("runs list: %d entries, want 1", len(list.Runs))
	}
	sum := list.Runs[0]
	if sum.Digest != digest || sum.Status != "done" || !sum.Observed {
		t.Errorf("run summary: %+v", sum)
	}
	if sum.Events == 0 || sum.EventsRetained == 0 {
		t.Errorf("observed run retained no events: %+v", sum)
	}
	if sum.Verdict != res.Verdict {
		t.Errorf("summary verdict %q, result verdict %q", sum.Verdict, res.Verdict)
	}

	// Detail by prefix; per-site energy must reconcile with the ledger.
	resp, err = http.Get(ts.URL + "/v1/runs/" + digest[:12])
	if err != nil {
		t.Fatal(err)
	}
	detailBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run detail by prefix: status %d, body %s", resp.StatusCode, detailBody)
	}
	detail := decode[RunDetail](t, detailBody)
	if detail.Result == nil || detail.Result.Verdict != res.Verdict {
		t.Fatalf("detail result missing or diverged: %+v", detail.Result)
	}
	if len(detail.Sites) == 0 {
		t.Fatal("no checkpoint sites attributed")
	}
	var save, restore, reexec float64
	for _, st := range detail.Sites {
		save += st.SaveNJ
		restore += st.RestoreNJ
		reexec += st.ReexecNJ
		if got := st.SaveNJ + st.RestoreNJ + st.ReexecNJ; math.Abs(got-st.TotalNJ) > 1e-6 {
			t.Errorf("site %d total %v, components sum %v", st.Site, st.TotalNJ, got)
		}
	}
	for _, c := range []struct {
		name       string
		sites, run float64
	}{
		{"save", save, res.Energy.SaveNJ},
		{"restore", restore, res.Energy.RestoreNJ},
		{"reexec", reexec, res.Energy.ReexecNJ},
	} {
		if math.Abs(c.sites-c.run) > 1e-6 {
			t.Errorf("%s energy: sites sum %v, run ledger %v", c.name, c.sites, c.run)
		}
	}
	if int(detail.PowerFailures) != res.PowerFailures {
		t.Errorf("detail power failures %d, result %d", detail.PowerFailures, res.PowerFailures)
	}

	for _, path := range []string{
		"/v1/runs/" + strings.Repeat("0", 64), // unknown
		"/v1/runs/zz",                         // too short for prefix match
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
	}
}

var idLine = regexp.MustCompile(`^id: (\d+)$`)

// sseGet streams /v1/runs/{digest}/events to completion and returns the
// raw bytes. lastID >= 0 is sent as a Last-Event-ID header.
func sseGet(t *testing.T, url string, lastID int64) (int, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastID >= 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatInt(lastID, 10))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestSSEReplayAndByteForByteResume(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, body, hdr := post(t, ts, "emulate", Request{Name: "sum", Source: sumProg, Options: observedOpts("schematic")})
	if code != http.StatusOK {
		t.Fatalf("emulate: status %d, body %s", code, body)
	}
	digest := hdr.Get("X-Schematic-Digest")
	eventsURL := ts.URL + "/v1/runs/" + digest + "/events"

	status, full := sseGet(t, eventsURL, -1)
	if status != http.StatusOK {
		t.Fatalf("events replay: status %d", status)
	}
	if !strings.Contains(full, "event: result") || !strings.Contains(full, `"verdict"`) {
		t.Fatalf("replay missing terminal result event; tail: %q", tail(full, 200))
	}
	if strings.Contains(full, "event: gap") {
		t.Fatalf("unexpected gap in full-ring replay")
	}

	// Split into SSE frames (each ends with a blank line) and resume from
	// a mid-stream frame's id: the resumed stream must be byte-for-byte
	// the remainder of the full stream.
	frames := strings.SplitAfter(full, "\n\n")
	if frames[len(frames)-1] == "" {
		frames = frames[:len(frames)-1]
	}
	if len(frames) < 10 {
		t.Fatalf("only %d frames — fixture too small", len(frames))
	}
	k := len(frames) / 2
	m := idLine.FindStringSubmatch(strings.SplitN(frames[k], "\n", 2)[0])
	if m == nil {
		t.Fatalf("frame %d has no id line: %q", k, frames[k])
	}
	mid, _ := strconv.ParseInt(m[1], 10, 64)

	status, resumed := sseGet(t, eventsURL, mid)
	if status != http.StatusOK {
		t.Fatalf("resume: status %d", status)
	}
	want := strings.Join(frames[k+1:], "")
	if resumed != want {
		t.Errorf("resume from id %d diverged from the suffix of the full stream:\n got %q\nwant %q",
			mid, tail(resumed, 300), tail(want, 300))
	}

	// ?from= is the header's query-parameter twin (for curl and the
	// dashboard).
	status, fromQ := sseGet(t, eventsURL+"?from="+strconv.FormatInt(mid, 10), -1)
	if status != http.StatusOK || fromQ != want {
		t.Error("?from= resume diverged from Last-Event-ID resume")
	}

	// Resuming from the terminal id replays only the terminal record.
	terminalID := int64(-1)
	for _, fr := range frames {
		if m := idLine.FindStringSubmatch(strings.SplitN(fr, "\n", 2)[0]); m != nil {
			terminalID, _ = strconv.ParseInt(m[1], 10, 64)
		}
	}
	_, onlyTerminal := sseGet(t, eventsURL, terminalID-1)
	if !strings.HasPrefix(onlyTerminal, "id: "+strconv.FormatInt(terminalID, 10)+"\nevent: result\n") {
		t.Errorf("resume at terminal-1: %q", tail(onlyTerminal, 200))
	}

	// An id past every event, up to the largest one, is caught up: the
	// stream is the terminal record alone, with no gap marker.
	_, caughtUp := sseGet(t, eventsURL, math.MaxInt64)
	if last := frames[len(frames)-1]; caughtUp != last {
		t.Errorf("resume from the largest id: %q, want only the terminal record %q", tail(caughtUp, 300), last)
	}
}

func TestSSEGapMarkerOnEvictedPrefix(t *testing.T) {
	_, ts := newTestServer(t, Config{RunEvents: 32})
	code, body, hdr := post(t, ts, "emulate", Request{Name: "sum", Source: sumProg, Options: observedOpts("schematic")})
	if code != http.StatusOK {
		t.Fatalf("emulate: status %d, body %s", code, body)
	}
	status, full := sseGet(t, ts.URL+"/v1/runs/"+hdr.Get("X-Schematic-Digest")+"/events", -1)
	if status != http.StatusOK {
		t.Fatalf("events: status %d", status)
	}
	if !strings.HasPrefix(full, "event: gap\ndata: {\"k\":\"gap\",\"missed\":") {
		t.Fatalf("32-slot ring replay did not open with a gap marker: %q", tail(full, 0)[:min(len(full), 120)])
	}
	if !strings.Contains(full, "event: result") {
		t.Error("gap replay missing terminal result")
	}
}

// TestSSELiveHeartbeatAndResult drives the unobserved-run branch
// deterministically: a hand-registered running run emits only heartbeats
// until it finishes, then the terminal frame.
func TestSSELiveHeartbeatAndResult(t *testing.T) {
	s, ts := newTestServer(t, Config{SSEHeartbeat: 2 * time.Millisecond})
	digest := strings.Repeat("ab", 32)
	rs := startRun(s.runs, digest, &Request{Name: "slow", Options: Options{Technique: "schematic"}}, nil, nil)
	if rs == nil {
		t.Fatal("run not registered")
	}

	resp, err := http.Get(ts.URL + "/v1/runs/" + digest + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		t.Fatalf("content type %q", ct)
	}
	br := bufio.NewReader(resp.Body)
	line, err := br.ReadString('\n')
	if err != nil || strings.TrimSpace(line) != ": hb" {
		t.Fatalf("first stream line %q (err %v), want heartbeat comment", line, err)
	}
	rs.finish(&EmulateResponse{Digest: digest, Verdict: "completed"}, nil)
	rest, err := io.ReadAll(br)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(rest), "event: result") || !strings.Contains(string(rest), `"verdict":"completed"`) {
		t.Errorf("stream after finish: %q", tail(string(rest), 300))
	}
}

// TestSSELiveStreamAndDrainTeardown subscribes to an in-flight observed
// run, receives live events, then checks BeginDrain ends the stream with
// a drain frame and Drain completes with the subscriber gone.
func TestSSELiveStreamAndDrainTeardown(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	digest := strings.Repeat("cd", 32)
	hub := obs.NewHub[emulator.Event](1024, nil)
	rs := startRun(s.runs, digest, &Request{Name: "live", Options: Options{Technique: "schematic"}}, hub, obs.NewCollector())
	if rs == nil {
		t.Fatal("run not registered")
	}

	resp, err := http.Get(ts.URL + "/v1/runs/" + digest + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	waitFor(t, "subscriber attach", func() bool { return hub.Subscribers() == 1 })

	hub.Event(emulator.Event{Kind: emulator.EvBlockEnter, Cycle: 7})
	br := bufio.NewReader(resp.Body)
	var got strings.Builder
	waitLine := func(want string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			line, err := br.ReadString('\n')
			got.WriteString(line)
			if strings.Contains(line, want) {
				return
			}
			if err != nil || time.Now().After(deadline) {
				t.Fatalf("waiting for %q, got %q (err %v)", want, got.String(), err)
			}
		}
	}
	waitLine(`"cycle":7`)
	if s.sseSubs.Load() != 1 {
		t.Errorf("sse gauge %d with one live stream", s.sseSubs.Load())
	}

	s.BeginDrain()
	waitLine("event: drain")
	if _, err := io.ReadAll(br); err != nil {
		t.Fatalf("stream did not end after drain frame: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain with torn-down SSE stream: %v", err)
	}
	if s.sseSubs.Load() != 0 {
		t.Errorf("sse gauge %d after drain", s.sseSubs.Load())
	}
	hub.Close()
}

// tail returns the last n bytes of s for error messages (0 = all).
func tail(s string, n int) string {
	if n == 0 || len(s) <= n {
		return s
	}
	return "…" + s[len(s)-n:]
}
