package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"schematic/internal/bench"
)

// TestStagesGolden pins the answers of the compile and emulate pipeline
// byte for byte: every cell of four grids (crc and randmath × four
// techniques × two TBPFs, one grid per optimize × seed), the compiles
// of both programs with and without placement and the optimizer (IR
// replaced by its SHA-256), and a 422. Everything goes to one server,
// so cells and compiles of one program answer through shared work
// wherever the server shares it. Regenerate testdata/stages_golden.ndjson
// with -update only for an intended change of a result.
func TestStagesGolden(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var lines [][]byte
	add := func(v any) {
		t.Helper()
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, b)
	}
	benches := []string{"crc", "randmath"}

	for _, optimize := range []bool{false, true} {
		for _, seed := range []int64{1, 7} {
			code, body, _ := postGrid(t, ts, GridRequest{
				Benches:    benches,
				Techniques: []string{"schematic", "ratchet", "mementos", "none"},
				TBPFs:      []int64{1000, 10_000},
				Options:    Options{ProfileRuns: 3, Seed: seed, Optimize: optimize},
			})
			if code != http.StatusOK {
				t.Fatalf("grid optimize=%v seed=%d: status %d, body %s", optimize, seed, code, body)
			}
			for _, c := range decode[GridResponse](t, body).Cells {
				if c.Error != "" {
					add(ErrorResponse{Error: c.Error})
				} else {
					add(c.Result)
				}
			}
		}
	}

	for _, b := range benches {
		for _, technique := range []string{"schematic", "none"} {
			for _, optimize := range []bool{false, true} {
				req := Request{Bench: b, Options: Options{Technique: technique, ProfileRuns: 3, Optimize: optimize}}
				code, body, _ := post(t, ts, "compile", req)
				if code != http.StatusOK {
					t.Fatalf("compile %s %s optimize=%v: status %d, body %s", b, technique, optimize, code, body)
				}
				resp := decode[CompileResponse](t, body)
				sum := sha256.Sum256([]byte(resp.IR))
				resp.IR = hex.EncodeToString(sum[:])
				add(resp)
			}
		}
	}

	code, body, _ := post(t, ts, "emulate", Request{Bench: "dijkstra", Options: Options{Technique: "mementos", VMSize: 2048, ProfileRuns: 3}})
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("mementos on dijkstra: status %d, body %s, want 422", code, body)
	}
	lines = append(lines, bytes.TrimSpace(body))

	got := append(bytes.Join(lines, []byte("\n")), '\n')
	path := filepath.Join("testdata", "stages_golden.ndjson")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gotLines, wantLines := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Errorf("%d lines, golden has %d", len(gotLines), len(wantLines))
	}
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			t.Errorf("line %d changed:\n got %s\nwant %s", i+1, gotLines[i], wantLines[i])
		}
	}
}

// lookups counts a stage cache's lookups.
func lookups(c CacheStats) int64 { return c.Hits + c.Coalesced + c.Misses }

// TestStageSharing: the front-end and profile stages are shared by
// every request that reads the same fields, and by no other.
func TestStageSharing(t *testing.T) {
	ok := func(t *testing.T, ts *httptest.Server, kind string, req Request) {
		t.Helper()
		if code, body, _ := post(t, ts, kind, req); code != http.StatusOK {
			t.Fatalf("%s: status %d, body %s", kind, code, body)
		}
	}
	sum := func(technique string) Request {
		return Request{Name: "sum", Source: sumProg, Options: fastOpts(technique)}
	}

	t.Run("grid cells share both stages", func(t *testing.T) {
		s, ts := newTestServer(t, Config{})
		code, body, _ := postGrid(t, ts, GridRequest{
			Benches:    []string{"crc"},
			Techniques: []string{"schematic", "ratchet", "rockclimb"},
			TBPFs:      []int64{500, 1000, 2000},
			Options:    Options{ProfileRuns: 2},
		})
		if code != http.StatusOK {
			t.Fatalf("grid: status %d, body %s", code, body)
		}
		for name, c := range map[string]CacheStats{"front": s.front.Stats(), "profile": s.profile.Stats()} {
			if c.Misses != 1 || c.Hits+c.Coalesced != 8 {
				t.Errorf("%s stage %+v, want 1 miss and 8 hits plus coalesced", name, c)
			}
		}
		resp, err := ts.Client().Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		for _, series := range []string{
			`schematicd_stage_cache_total{stage="front",result="miss"} 1`,
			`schematicd_stage_cache_total{stage="profile",result="miss"} 1`,
		} {
			if !strings.Contains(string(raw), series+"\n") {
				t.Errorf("metrics lack %s", series)
			}
		}
	})

	t.Run("technique none reads the front stage only", func(t *testing.T) {
		s, ts := newTestServer(t, Config{})
		ok(t, ts, "compile", sum("none"))
		if f, p := s.front.Stats(), s.profile.Stats(); lookups(f) != 1 || lookups(p) != 0 {
			t.Errorf("front %+v profile %+v, want 1 and 0 lookups", f, p)
		}
	})

	t.Run("a seed splits the profile, not the front", func(t *testing.T) {
		s, ts := newTestServer(t, Config{})
		for _, seed := range []int64{1, 2} {
			req := sum("schematic")
			req.Options.Seed = seed
			ok(t, ts, "emulate", req)
		}
		if f, p := s.front.Stats(), s.profile.Stats(); f.Misses != 1 || p.Misses != 2 {
			t.Errorf("front %+v profile %+v, want 1 and 2 misses", f, p)
		}
	})

	t.Run("optimize splits the front", func(t *testing.T) {
		s, ts := newTestServer(t, Config{})
		for _, optimize := range []bool{false, true} {
			req := sum("none")
			req.Options.Optimize = optimize
			ok(t, ts, "compile", req)
		}
		if f := s.front.Stats(); f.Misses != 2 {
			t.Errorf("front %+v, want 2 misses", f)
		}
	})

	t.Run("two sources under one name", func(t *testing.T) {
		s, ts := newTestServer(t, Config{})
		ok(t, ts, "compile", sum("none"))
		other := sum("none")
		other.Source = strings.Replace(sumProg, "0xFFFF", "0xFFF", 1)
		ok(t, ts, "compile", other)
		if f := s.front.Stats(); f.Misses != 2 {
			t.Errorf("front %+v, want 2 misses", f)
		}
	})

	t.Run("an unsupported technique is rejected before profiling", func(t *testing.T) {
		s, ts := newTestServer(t, Config{})
		req := Request{Bench: "dijkstra", Options: Options{Technique: "mementos", VMSize: 2048, ProfileRuns: 2}}
		if code, body, _ := post(t, ts, "emulate", req); code != http.StatusUnprocessableEntity {
			t.Fatalf("mementos on dijkstra: status %d, body %s, want 422", code, body)
		}
		if f, p := s.front.Stats(), s.profile.Stats(); lookups(f) != 1 || lookups(p) != 0 {
			t.Errorf("front %+v profile %+v, want 1 and 0 lookups", f, p)
		}
	})

	t.Run("a follower's deadline passes while it waits", func(t *testing.T) {
		s, ts := newTestServer(t, Config{})
		req := sum("schematic")
		req.Options.TimeoutMS = 300
		// The test leads the front stage, so the request waits as its
		// follower until its deadline passes.
		key := frontKey(&req)
		e, leader := s.front.Begin(key)
		if !leader {
			t.Fatal("fresh front stage already has an entry")
		}
		if code, body, _ := post(t, ts, "emulate", req); code != http.StatusGatewayTimeout {
			t.Fatalf("stage follower past its deadline: status %d, body %s, want 504", code, body)
		}
		if f := s.front.Stats(); f.Coalesced != 1 {
			t.Errorf("front %+v, want the request coalesced", f)
		}
		m, err := compileFront(&req)
		s.front.Complete(key, e, m, err, true)
		ok(t, ts, "emulate", req)
		if c := s.CacheStats(); c.Misses != 2 || c.Hits != 0 {
			t.Errorf("result cache %+v: the 504 was cached", c)
		}
	})
}

// BenchmarkGridCold times the perfbench service workload's cold grid:
// five programs × three techniques × three TBPFs at 10 profile runs, on
// a fresh server with no store and a fresh seed each iteration.
func BenchmarkGridCold(b *testing.B) {
	seed := int64(0)
	for i := 0; i < b.N; i++ {
		seed++
		raw, _ := json.Marshal(GridRequest{
			Benches:    []string{"crc", "randmath", "stringsearch", "basicmath", "sha"},
			Techniques: []string{"schematic", "ratchet", "rockclimb"},
			TBPFs:      bench.TBPFs,
			Options:    Options{ProfileRuns: 10, Seed: seed},
		})
		s := New(Config{})
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/grid", bytes.NewReader(raw)))
		s.Close()
		if rec.Code != http.StatusOK {
			b.Fatalf("grid: status %d, body %s", rec.Code, rec.Body)
		}
		var resp GridResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || resp.CellErrors != 0 {
			b.Fatalf("grid: %d cell errors, decode error %v", resp.CellErrors, err)
		}
	}
}
