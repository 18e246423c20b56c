package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"schematic/internal/store"
	"schematic/internal/verify"
)

// openTestStore opens a store handle on dir, failing the test on error.
func openTestStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestStoreRestartHit is the restart contract: fill a store through one
// Server, stand up a fresh Server (a "restarted daemon") on the same
// directory, and the same request is answered from disk without running
// the pipeline.
func TestStoreRestartHit(t *testing.T) {
	dir := t.TempDir()
	req := Request{Name: "sum", Source: sumProg, Options: fastOpts("schematic")}

	s1, ts1 := newTestServer(t, Config{Store: openTestStore(t, dir)})
	var ran1 atomic.Int64
	s1.gate = func(string) { ran1.Add(1) }
	code, body, _ := post(t, ts1, "emulate", req)
	if code != http.StatusOK {
		t.Fatalf("fill: status %d, body %s", code, body)
	}
	want := decode[EmulateResponse](t, body)
	if ran1.Load() != 1 {
		t.Fatalf("fill ran %d jobs, want 1", ran1.Load())
	}
	if st := s1.StoreStats(); st.Puts != 1 {
		t.Fatalf("fill store stats %+v, want 1 put", st)
	}

	// The "restarted" process: fresh Server, fresh store handle, same dir.
	s2, ts2 := newTestServer(t, Config{Store: openTestStore(t, dir)})
	var ran2 atomic.Int64
	s2.gate = func(string) { ran2.Add(1) }
	code, body, _ = post(t, ts2, "emulate", req)
	if code != http.StatusOK {
		t.Fatalf("after restart: status %d, body %s", code, body)
	}
	got := decode[EmulateResponse](t, body)
	if ran2.Load() != 0 {
		t.Fatalf("restarted server ran %d jobs, want 0 (store hit)", ran2.Load())
	}
	if st := s2.StoreStats(); st.Hits != 1 || st.Puts != 0 {
		t.Fatalf("restarted store stats %+v, want 1 hit / 0 puts", st)
	}
	if got.Verdict != want.Verdict || got.Cycles != want.Cycles || got.Energy.TotalNJ != want.Energy.TotalNJ {
		t.Fatalf("store round trip diverged:\n got %+v\nwant %+v", got, want)
	}

	// Third request on the restarted server: now an in-memory hit — the
	// store is only consulted on cache misses.
	if code, body, _ = post(t, ts2, "emulate", req); code != http.StatusOK {
		t.Fatalf("warm repeat: status %d, body %s", code, body)
	}
	if st := s2.StoreStats(); st.Hits != 1 {
		t.Fatalf("warm repeat went to disk: %+v", st)
	}
	if cs := s2.CacheStats(); cs.Hits != 1 {
		t.Fatalf("warm repeat cache stats %+v, want 1 hit", cs)
	}
}

// TestStoreStaleRevisionNotServed: the digest canon carries the engine
// revision, so a result a -store directory kept from before the last
// revision bump — filed under the request's old digest, the canon
// without a revision — is never served for that request; the request
// recomputes under its new digest.
func TestStoreStaleRevisionNotServed(t *testing.T) {
	dir := t.TempDir()
	req := Request{Name: "sum", Source: sumProg, Options: fastOpts("mementos")}
	norm := req
	if err := norm.normalize("emulate"); err != nil {
		t.Fatal(err)
	}
	oldCanon, _ := json.Marshal(struct {
		Kind    string  `json:"kind"`
		Name    string  `json:"name"`
		Source  string  `json:"source"`
		Options Options `json:"options"`
	}{"emulate", norm.Name, norm.Source, norm.Options})
	sum := sha256.Sum256(oldCanon)
	oldDigest := hex.EncodeToString(sum[:])
	if oldDigest == norm.digest("emulate") {
		t.Fatal("the digest canon ignores the engine revision")
	}
	stale, _ := json.Marshal(&EmulateResponse{Digest: oldDigest, Name: "sum", Verdict: "stale", Output: []int64{424242}})
	env, _ := json.Marshal(storedResult{Kind: "emulate", Body: stale})
	if err := openTestStore(t, dir).Put(oldDigest, env); err != nil {
		t.Fatal(err)
	}

	s, ts := newTestServer(t, Config{Store: openTestStore(t, dir)})
	var ran atomic.Int64
	s.gate = func(string) { ran.Add(1) }
	code, body, hdr := post(t, ts, "emulate", req)
	if code != http.StatusOK {
		t.Fatalf("status %d, body %s", code, body)
	}
	got := decode[EmulateResponse](t, body)
	if got.Verdict == "stale" || got.Digest == oldDigest || hdr.Get("X-Schematic-Digest") == oldDigest {
		t.Fatalf("served the pre-revision store entry: %+v", got)
	}
	if ran.Load() != 1 {
		t.Fatalf("ran %d jobs, want 1 (recompute)", ran.Load())
	}
}

// TestUncacheableNeverStored is the satellite-3 regression: what a
// timed-out job produced must not be persisted, so a follower on a
// restarted daemon can never observe it — it recomputes instead.
func TestUncacheableNeverStored(t *testing.T) {
	dir := t.TempDir()
	o := fastOpts("schematic")
	o.TimeoutMS = 10
	req := Request{Name: "sum", Source: sumProg, Options: o}

	disk := openTestStore(t, dir)
	s1, ts1 := newTestServer(t, Config{Store: disk})
	s1.gate = func(string) { time.Sleep(50 * time.Millisecond) }
	code, body, _ := post(t, ts1, "emulate", req)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("stalled job: status %d, body %s", code, body)
	}
	if st := s1.StoreStats(); st.Puts != 0 {
		t.Fatalf("timed-out result was persisted: %+v", st)
	}
	if n, err := disk.Len(); err != nil || n != 0 {
		t.Fatalf("store holds %d entries (err %v) after uncacheable outcome", n, err)
	}

	// Across the restart boundary: the follower-of-the-future sees a
	// clean miss and recomputes successfully.
	s2, ts2 := newTestServer(t, Config{Store: openTestStore(t, dir)})
	var ran atomic.Int64
	s2.gate = func(string) { ran.Add(1) }
	code, body, _ = post(t, ts2, "emulate", req)
	if code != http.StatusOK {
		t.Fatalf("after restart: status %d, body %s", code, body)
	}
	if ran.Load() != 1 {
		t.Fatalf("restarted server ran %d jobs, want 1 (recompute)", ran.Load())
	}
	if st := s2.StoreStats(); st.Hits != 0 || st.Misses != 1 {
		t.Fatalf("restarted store stats %+v, want a miss then recompute", st)
	}
}

// TestVerifyDeadlineNeverCached: a verify search its job deadline cuts
// short is served as bounded by "deadline", but neither cached nor
// stored, so an identical resubmission searches again.
func TestVerifyDeadlineNeverCached(t *testing.T) {
	s, ts := newTestServer(t, Config{Store: openTestStore(t, t.TempDir())})
	var ran atomic.Int64
	s.gate = func(string) { ran.Add(1) }
	// The search's first progress report (after 100 of the 1,361 states
	// stringsearch/alfred explores) holds it until the deadline passes,
	// so the deadline lands inside it on any host.
	s.verifyProgress = func(ctx context.Context, _ verify.Progress) { <-ctx.Done() }
	req := Request{Bench: "stringsearch", Options: Options{Technique: "alfred", TimeoutMS: 200}}
	for i := 1; i <= 2; i++ {
		code, body, _ := post(t, ts, "verify", req)
		if code != http.StatusOK {
			t.Fatalf("verify %d: status %d, body %s", i, code, body)
		}
		if r := decode[VerifyResponse](t, body); r.Verdict != "bounded" || r.Bound != "deadline" {
			t.Fatalf("verify %d: %+v, want bounded by the deadline", i, r)
		}
	}
	if ran.Load() != 2 {
		t.Fatalf("ran %d searches, want 2 (the resubmission recomputes)", ran.Load())
	}
	if st := s.StoreStats(); st.Puts != 0 {
		t.Fatalf("a search cut short was stored: %+v", st)
	}
}

// TestStoreCorruptRecompute: a blob that rots on disk between processes
// is detected, quarantined, counted, recomputed, and rewritten — and the
// rewrite serves the next restart from disk again.
func TestStoreCorruptRecompute(t *testing.T) {
	dir := t.TempDir()
	req := Request{Name: "sum", Source: sumProg, Options: fastOpts("ratchet")}

	_, ts1 := newTestServer(t, Config{Store: openTestStore(t, dir)})
	code, body, hdr := post(t, ts1, "emulate", req)
	if code != http.StatusOK {
		t.Fatalf("fill: status %d, body %s", code, body)
	}
	want := decode[EmulateResponse](t, body)
	digest := hdr.Get("X-Schematic-Digest")

	// Bit rot: flip one payload byte in the committed entry.
	p := filepath.Join(dir, digest[:2], digest[2:])
	raw, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-2] ^= 0x20
	if err := os.WriteFile(p, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, ts2 := newTestServer(t, Config{Store: openTestStore(t, dir)})
	var ran atomic.Int64
	s2.gate = func(string) { ran.Add(1) }
	code, body, _ = post(t, ts2, "emulate", req)
	if code != http.StatusOK {
		t.Fatalf("after corruption: status %d, body %s", code, body)
	}
	got := decode[EmulateResponse](t, body)
	if got.Verdict != want.Verdict || got.Cycles != want.Cycles {
		t.Fatalf("recompute diverged: got %+v want %+v", got, want)
	}
	if ran.Load() != 1 {
		t.Fatalf("corrupt entry served without recompute (ran=%d)", ran.Load())
	}
	st := s2.StoreStats()
	if st.Corrupt != 1 || st.Hits != 0 || st.Puts != 1 {
		t.Fatalf("store stats after corruption %+v, want 1 corrupt / 0 hits / 1 put", st)
	}
	// The counter surfaces as schematicd_store_corrupt_total.
	resp, err := ts2.Client().Get(ts2.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("schematicd_store_corrupt_total 1")) {
		t.Error("store_corrupt_total not exported after quarantine")
	}

	// The rewrite restored durability: a third process hits clean.
	s3, ts3 := newTestServer(t, Config{Store: openTestStore(t, dir)})
	var ran3 atomic.Int64
	s3.gate = func(string) { ran3.Add(1) }
	if code, body, _ = post(t, ts3, "emulate", req); code != http.StatusOK {
		t.Fatalf("after rewrite: status %d, body %s", code, body)
	}
	if ran3.Load() != 0 {
		t.Fatal("rewritten entry did not serve the next restart")
	}
	if st := s3.StoreStats(); st.Hits != 1 || st.Corrupt != 0 {
		t.Fatalf("post-rewrite store stats %+v", st)
	}
}

// TestStoreUndecodableQuarantined: an entry whose checksum verifies but
// whose envelope does not decode (wrong kind — an incompatible writer)
// is quarantined and recomputed rather than served or retried forever.
func TestStoreUndecodableQuarantined(t *testing.T) {
	dir := t.TempDir()
	req := Request{Name: "sum", Source: sumProg, Options: fastOpts("schematic")}
	digest, err := DigestOf("emulate", req)
	if err != nil {
		t.Fatal(err)
	}
	seed := openTestStore(t, dir)
	// A checksum-valid entry carrying the wrong kind under this digest.
	if err := seed.Put(digest, []byte(`{"kind":"compile","body":{}}`)); err != nil {
		t.Fatal(err)
	}

	s, ts := newTestServer(t, Config{Store: openTestStore(t, dir)})
	var ran atomic.Int64
	s.gate = func(string) { ran.Add(1) }
	code, body, _ := post(t, ts, "emulate", req)
	if code != http.StatusOK {
		t.Fatalf("status %d, body %s", code, body)
	}
	if ran.Load() != 1 {
		t.Fatalf("mislabeled entry short-circuited the pipeline (ran=%d)", ran.Load())
	}
	if st := s.StoreStats(); st.Corrupt != 1 || st.Puts != 1 {
		t.Fatalf("store stats %+v, want quarantine + rewrite", st)
	}
}

// TestConcurrentServersSharedDir runs two Servers ("replicas") over one
// store directory under concurrent mixed traffic — the multi-replica
// sharing contract, exercised under -race. Every response must be 200
// and byte-consistent per digest, with zero corruption.
func TestConcurrentServersSharedDir(t *testing.T) {
	dir := t.TempDir()
	sA, tsA := newTestServer(t, Config{Workers: 4, Store: openTestStore(t, dir)})
	sB, tsB := newTestServer(t, Config{Workers: 4, Store: openTestStore(t, dir)})

	reqs := make([]Request, 6)
	for i := range reqs {
		o := fastOpts("schematic")
		o.Seed = int64(1 + i%3) // three distinct workloads, shared across replicas
		reqs[i] = Request{Name: fmt.Sprintf("sum-%d", i%3), Source: sumProg, Options: o}
	}

	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		results = map[string]string{} // digest -> verdict+cycles fingerprint
		fail    atomic.Int64
	)
	for round := 0; round < 3; round++ {
		for i := range reqs {
			for _, ts := range []*httptest.Server{tsA, tsB} {
				wg.Add(1)
				go func(ts *httptest.Server, i int) {
					defer wg.Done()
					code, body, hdr := post(t, ts, "emulate", reqs[i])
					if code != http.StatusOK {
						fail.Add(1)
						return
					}
					r := decode[EmulateResponse](t, body)
					fp := fmt.Sprintf("%s/%d/%g", r.Verdict, r.Cycles, r.Energy.TotalNJ)
					mu.Lock()
					defer mu.Unlock()
					d := hdr.Get("X-Schematic-Digest")
					if prev, ok := results[d]; ok && prev != fp {
						t.Errorf("digest %s served divergent results: %s vs %s", d[:12], prev, fp)
					}
					results[d] = fp
				}(ts, i)
			}
		}
	}
	wg.Wait()
	if fail.Load() != 0 {
		t.Fatalf("%d requests failed", fail.Load())
	}
	if len(results) != 3 {
		t.Fatalf("saw %d distinct digests, want 3", len(results))
	}
	for _, s := range []*Server{sA, sB} {
		if st := s.StoreStats(); st.Corrupt != 0 {
			t.Fatalf("replica saw corruption: %+v", st)
		}
	}
	// Cross-replica sharing happened: at least one replica read a result
	// the other wrote (the schedule decides which).
	if sA.StoreStats().Hits+sB.StoreStats().Hits == 0 {
		t.Log("note: no cross-replica store hit this schedule (all races won locally)")
	}
}
