package server

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata from the current server")

// wireGolden compares got with testdata/wire/name, rewriting it under
// -update. The files are the daemon's wire format: regenerate them only
// for an intended change of what clients receive.
func wireGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "wire", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing wire file (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s changed on the wire:\n got %q\nwant %q", name, got, want)
	}
}

// terminalFrame streams a run's events to the end and returns its last
// SSE frame: the terminal record.
func terminalFrame(t *testing.T, ts *httptest.Server, digest string) []byte {
	t.Helper()
	status, stream := sseGet(t, ts.URL+"/v1/runs/"+digest+"/events", -1)
	if status != http.StatusOK {
		t.Fatalf("events of %s: status %d", short(digest), status)
	}
	frames := strings.SplitAfter(stream, "\n\n")
	if frames[len(frames)-1] == "" {
		frames = frames[:len(frames)-1]
	}
	return []byte(frames[len(frames)-1])
}

// wireResponse renders a job response as the client sees it: the
// status, the headers the server sets, and the body.
func wireResponse(code int, hdr http.Header, body []byte) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "status %d\n", code)
	for _, k := range []string{"Content-Type", "Retry-After", "X-Schematic-Digest"} {
		fmt.Fprintf(&b, "%s: %s\n", k, hdr.Get(k))
	}
	b.WriteByte('\n')
	b.Write(body)
	return b.Bytes()
}

var elapsedMS = regexp.MustCompile(`"elapsed_ms":[-+.0-9eE]+`)

// TestTerminalFramesWire pins byte for byte the terminal SSE frame (id,
// event, data) of each kind of run the registry holds: an observed and
// an unobserved emulation, a failed one, a verification (whose record
// carries a null result) and a grid (wall time masked).
func TestTerminalFramesWire(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	job := func(kind string, req Request, wantCode int) string {
		t.Helper()
		code, body, hdr := post(t, ts, kind, req)
		if code != wantCode {
			t.Fatalf("%s: status %d, body %s, want %d", kind, code, body, wantCode)
		}
		return hdr.Get("X-Schematic-Digest")
	}

	d := job("emulate", Request{Name: "sum", Source: sumProg, Options: observedOpts("schematic")}, http.StatusOK)
	wireGolden(t, "emulate-observed.sse", terminalFrame(t, ts, d))

	d = job("emulate", Request{Name: "sum", Source: sumProg, Options: fastOpts("ratchet")}, http.StatusOK)
	wireGolden(t, "emulate-unobserved.sse", terminalFrame(t, ts, d))

	d = job("emulate", Request{Bench: "dijkstra", Options: Options{Technique: "mementos", VMSize: 2048, ProfileRuns: 2}},
		http.StatusUnprocessableEntity)
	wireGolden(t, "emulate-failed.sse", terminalFrame(t, ts, d))

	d = job("verify", Request{Name: "sum", Source: sumProg, Options: fastOpts("ratchet")}, http.StatusOK)
	wireGolden(t, "verify.sse", terminalFrame(t, ts, d))

	code, body, hdr := postGrid(t, ts, smallGrid())
	if code != http.StatusOK {
		t.Fatalf("grid: status %d, body %s", code, body)
	}
	frame := terminalFrame(t, ts, hdr.Get("X-Schematic-Digest"))
	wireGolden(t, "grid.sse", elapsedMS.ReplaceAll(frame, []byte(`"elapsed_ms":0`)))
}

// TestRejectionsWire pins the response of a follower whose client
// leaves while it waits on its leader (504) and of a request the full
// admission queue turns away (429).
func TestRejectionsWire(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueCap: 1})
	var entered atomic.Int64
	release := make(chan struct{})
	s.gate = func(string) {
		entered.Add(1)
		<-release
	}
	compile := func(seed int64) Request {
		o := fastOpts("none")
		o.Seed = seed
		return Request{Name: "sum", Source: sumProg, Options: o}
	}
	done := make(chan int, 2)
	go func() { code, _, _ := post(t, ts, "compile", compile(1)); done <- code }()
	waitFor(t, "leader holding the worker", func() bool { return entered.Load() == 1 })

	// A follower of the leader whose client goes away.
	ctx, cancel := context.WithCancel(context.Background())
	raw, _ := json.Marshal(compile(1))
	follower := httptest.NewRequest(http.MethodPost, "/v1/compile", bytes.NewReader(raw)).WithContext(ctx)
	rec := httptest.NewRecorder()
	served := make(chan struct{})
	go func() {
		s.Handler().ServeHTTP(rec, follower)
		close(served)
	}()
	waitFor(t, "follower coalesced", func() bool { return s.CacheStats().Coalesced == 1 })
	cancel()
	<-served
	wireGolden(t, "follower-gone.http", wireResponse(rec.Code, rec.Header(), rec.Body.Bytes()))

	// A second distinct request fills the one-deep queue; a third is
	// turned away.
	go func() { code, _, _ := post(t, ts, "compile", compile(2)); done <- code }()
	waitFor(t, "second request queued", func() bool { return s.queued.Load() == 1 })
	code, resp, hdr := post(t, ts, "compile", compile(3))
	wireGolden(t, "queue-full.http", wireResponse(code, hdr, resp))

	close(release)
	for i := 0; i < 2; i++ {
		if code := <-done; code != http.StatusOK {
			t.Errorf("admitted request: status %d", code)
		}
	}
}
