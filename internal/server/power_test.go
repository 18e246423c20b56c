package server

import (
	"io"
	"net/http"
	"strings"
	"testing"
)

// TestEmulatePowerEndpoint: options.power runs the emulation under a
// harvested-energy schedule and reports the canonical spec back. The
// default capacitor sizing (capacity = EB) can only add energy over the
// built-in exhaustion physics, so a workload that completes without a
// power spec completes under solar too.
func TestEmulatePowerEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	opts := fastOpts("schematic")
	opts.Power = "solar:seed=5"
	code, body, _ := post(t, ts, "emulate", Request{Name: "sum", Source: sumProg, Options: opts})
	if code != http.StatusOK {
		t.Fatalf("emulate power: status %d, body %s", code, body)
	}
	r := decode[EmulateResponse](t, body)
	if !r.Completed {
		t.Fatalf("verdict %q, want completed: %+v", r.Verdict, r)
	}
	// The response echoes the canonical spec: defaults resolved.
	if !strings.HasPrefix(r.Power, "solar:seed=5,") || !strings.Contains(r.Power, "peak=") {
		t.Errorf("power %q, want canonical solar spec with resolved defaults", r.Power)
	}
	if got := s.powerRuns.Load(); got != 1 {
		t.Errorf("powerRuns = %d, want 1", got)
	}

	// The counter reaches the exposition endpoint.
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	met, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(met), "schematicd_power_runs_total 1") {
		t.Errorf("metrics missing power run counter:\n%s", met)
	}
}

// TestPowerDigestNormalization: equivalent power spellings share one
// content address; non-emulate endpoints ignore the knob entirely.
func TestPowerDigestNormalization(t *testing.T) {
	req := func(power string) Request {
		o := fastOpts("schematic")
		o.Power = power
		return Request{Name: "sum", Source: sumProg, Options: o}
	}
	short, err := DigestOf("emulate", req("solar"))
	if err != nil {
		t.Fatal(err)
	}
	canon, err := DigestOf("emulate", req("solar:seed=1,peak=0.8,period=2000000,day=0.5,cloud=0.4,window=40000,restart=1"))
	if err != nil {
		t.Fatal(err)
	}
	if short != canon {
		t.Errorf("default and spelled-out solar specs digest differently: %s vs %s", short, canon)
	}
	bare, err := DigestOf("emulate", req(""))
	if err != nil {
		t.Fatal(err)
	}
	if bare == short {
		t.Error("power spec did not perturb the emulate digest")
	}
	// Other kinds zero the knob: same digest with and without it.
	h1, err := DigestOf("hunt", req("solar"))
	if err != nil {
		t.Fatal(err)
	}
	h2, err := DigestOf("hunt", req(""))
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Error("options.power perturbed a hunt digest; it is emulate-only")
	}
}

// TestPowerRejections: malformed specs, specs naming two power sources
// and file-reading specs fail at normalization (400); a harvested spec
// on an unconstrained run is a program error (422).
func TestPowerRejections(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tc := range []struct {
		power string
		want  int
	}{
		{"warp:speed=9", http.StatusBadRequest},
		{"trace:run.ndjson", http.StatusBadRequest},
		{"csv:file=prof.csv", http.StatusBadRequest},
		{"solar+rf", http.StatusBadRequest}, // a run has one capacitor
	} {
		o := fastOpts("schematic")
		o.Power = tc.power
		code, body, _ := post(t, ts, "emulate", Request{Name: "sum", Source: sumProg, Options: o})
		if code != tc.want {
			t.Errorf("power %q: status %d (body %s), want %d", tc.power, code, body, tc.want)
		}
	}
	// Technique "none" with no budget runs on continuous power — a
	// power environment has nothing to govern there.
	o := Options{Technique: "none", ProfileRuns: 2, Power: "solar"}
	code, body, _ := post(t, ts, "emulate", Request{Name: "sum", Source: sumProg, Options: o})
	if code != http.StatusUnprocessableEntity {
		t.Errorf("power on continuous run: status %d (body %s), want 422", code, body)
	}
}

// TestGridPowersAxis: powers multiplies the grid like any other axis,
// cells carry their spec, and options.power is rejected as a per-cell
// conflict.
func TestGridPowersAxis(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, body, _ := postGrid(t, ts, GridRequest{
		Benches:    []string{"crc"},
		Techniques: []string{"schematic"},
		TBPFs:      []int64{500},
		Powers:     []string{"", "solar", "rf:seed=3"},
		Options:    Options{ProfileRuns: 2},
	})
	if code != http.StatusOK {
		t.Fatalf("grid powers: status %d, body %s", code, body)
	}
	r := decode[GridResponse](t, body)
	if r.CellsTotal != 3 || len(r.Cells) != 3 {
		t.Fatalf("cells_total %d, want 3: %+v", r.CellsTotal, r)
	}
	if len(r.Powers) != 3 || r.Powers[0] != "" || !strings.HasPrefix(r.Powers[1], "solar:") || !strings.HasPrefix(r.Powers[2], "rf:seed=3,") {
		t.Errorf("powers axis not canonicalized: %q", r.Powers)
	}
	digests := map[string]bool{}
	for i, c := range r.Cells {
		if c.Error != "" {
			t.Errorf("cell %d (%s): %s", i, c.Power, c.Error)
		}
		if c.Power != r.Powers[i] {
			t.Errorf("cell %d power %q, want %q", i, c.Power, r.Powers[i])
		}
		if c.Result == nil || !c.Result.Completed {
			t.Errorf("cell %d did not complete: %+v", i, c.Result)
		}
		digests[c.Digest] = true
	}
	if len(digests) != 3 {
		t.Errorf("power axis cells share digests: %v", digests)
	}

	// options.power is an axis, not a per-cell option.
	code, body, _ = postGrid(t, ts, GridRequest{
		Benches: []string{"crc"}, Techniques: []string{"schematic"}, TBPFs: []int64{500},
		Options: Options{Power: "solar"},
	})
	if code != http.StatusBadRequest || !strings.Contains(string(body), "grid axes") {
		t.Errorf("options.power on grid: status %d, body %s", code, body)
	}

	// File-reading specs are rejected on the axis too.
	code, body, _ = postGrid(t, ts, GridRequest{
		Benches: []string{"crc"}, Techniques: []string{"schematic"}, TBPFs: []int64{500},
		Powers: []string{"trace:run.ndjson"},
	})
	if code != http.StatusBadRequest || !strings.Contains(string(body), "local files") {
		t.Errorf("trace: power axis: status %d, body %s", code, body)
	}

	// So are entries naming two power sources, both named.
	code, body, _ = postGrid(t, ts, GridRequest{
		Benches: []string{"crc"}, Techniques: []string{"schematic"}, TBPFs: []int64{500},
		Powers: []string{"solar", "duty+exhaustion"},
	})
	if code != http.StatusBadRequest || !strings.Contains(string(body), `\"duty\" and \"exhaustion\"`) {
		t.Errorf("two-source power axis: status %d, body %s", code, body)
	}
}

// TestEmulatePowerOutOfRange: a power spec whose integer parameter is
// past 2^53 is refused at validation with 400, before any job runs. A
// random mean of 5e18 once reached RandomSchedule, whose doubled mean
// overflowed and panicked inside the job: the client got EOF, the job
// kept its worker slot, and a retry of the same digest hung.
func TestEmulatePowerOutOfRange(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, body, _ := post(t, ts, "emulate", Request{Bench: "crc", Options: Options{Power: "random:mean=5e18"}})
	if code != http.StatusBadRequest || !strings.Contains(string(body), "mean=5e18") {
		t.Fatalf("emulate random:mean=5e18: status %d, body %s; want 400 naming the parameter", code, body)
	}
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hbody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if h := decode[Health](t, hbody); h.Inflight != 0 {
		t.Errorf("healthz after the refused request: %+v, want no job in flight", h)
	}
}

// TestJobPanicReleasesSlot: a panic inside a job fails it with 500 and
// gives its worker slot back, and a retry of the same request is
// answered rather than left waiting on the failed leader.
func TestJobPanicReleasesSlot(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.gate = func(string) { panic("boom") }
	req := Request{Name: "sum", Source: sumProg, Options: fastOpts("none")}
	for i := 0; i < 2; i++ {
		code, body, _ := post(t, ts, "compile", req)
		if code != http.StatusInternalServerError || !strings.Contains(string(body), "boom") {
			t.Fatalf("request %d: status %d, body %s; want 500 naming the panic", i, code, body)
		}
	}
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hbody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if h := decode[Health](t, hbody); h.Inflight != 0 {
		t.Errorf("healthz after the panicking job: %+v, want no job in flight", h)
	}
}
