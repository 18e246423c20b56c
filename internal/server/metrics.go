package server

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"

	"schematic/internal/store"
)

// latencyBuckets are the fixed histogram bounds (seconds) for request
// durations, Prometheus' default spread: 5ms..10s. The implicit +Inf
// bucket is stored as one extra slot past the last bound.
var latencyBuckets = [...]float64{0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// metrics is a hand-rolled Prometheus registry (text exposition format
// 0.0.4) — the stdlib-only stand-in for the client library. It tracks
// per-endpoint request counts and latency histograms plus the
// queue/worker gauges; cache counters are scraped live from the result
// cache and the stage caches, runtime gauges from the server.
type metrics struct {
	mu         sync.Mutex
	requests   map[[2]string]int64 // {endpoint, code} -> count
	durSumS    map[string]float64  // endpoint -> total seconds
	durCount   map[string]int64    // endpoint -> observations
	durBuckets map[string]*[len(latencyBuckets) + 1]int64
	rejected   int64 // 429s issued by admission
}

func newMetrics() *metrics {
	return &metrics{
		requests:   make(map[[2]string]int64),
		durSumS:    make(map[string]float64),
		durCount:   make(map[string]int64),
		durBuckets: make(map[string]*[len(latencyBuckets) + 1]int64),
	}
}

// observe records one finished request on an instrumented endpoint.
func (m *metrics) observe(endpoint string, code int, seconds float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.requests[[2]string{endpoint, fmt.Sprint(code)}]++
	m.durSumS[endpoint] += seconds
	m.durCount[endpoint]++
	b := m.durBuckets[endpoint]
	if b == nil {
		b = new([len(latencyBuckets) + 1]int64)
		m.durBuckets[endpoint] = b
	}
	slot := len(latencyBuckets) // +Inf
	for i, le := range latencyBuckets {
		if seconds <= le {
			slot = i
			break
		}
	}
	b[slot]++ // stored non-cumulative; write renders cumulative
}

func (m *metrics) reject() {
	m.mu.Lock()
	m.rejected++
	m.mu.Unlock()
}

// snapshot returns copies of the counter maps plus the reject counter.
func (m *metrics) snapshot() (req map[[2]string]int64, sum map[string]float64,
	cnt map[string]int64, buckets map[string][len(latencyBuckets) + 1]int64, rejected int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	req = make(map[[2]string]int64, len(m.requests))
	for k, v := range m.requests {
		req[k] = v
	}
	sum = make(map[string]float64, len(m.durSumS))
	for k, v := range m.durSumS {
		sum[k] = v
	}
	cnt = make(map[string]int64, len(m.durCount))
	for k, v := range m.durCount {
		cnt[k] = v
	}
	buckets = make(map[string][len(latencyBuckets) + 1]int64, len(m.durBuckets))
	for k, v := range m.durBuckets {
		buckets[k] = *v
	}
	return req, sum, cnt, buckets, m.rejected
}

// gauges are the point-in-time values the server hands to write on each
// scrape, alongside the accumulated counters.
type gauges struct {
	queue, inflight int64
	workers         int
	queueCap        int
	draining        bool
	goroutines      int
	sseSubs         int64
	sseDropped      int64
	runs            int
	verifyStates    int64
	verifyDedup     int64
	powerRuns       int64
}

// gridStats are the grid scheduler's counters: accepted grids, resolved
// cells by source, and the in-flight gauge.
type gridStats struct {
	runs           int64
	cellsComputed  int64
	cellsCache     int64
	cellsStore     int64
	cellsCoalesced int64
	cellsInflight  int64
}

// stageStats are the counters of prepare's two stage caches.
type stageStats struct {
	front, profile CacheStats
}

// write renders the exposition text. Series are sorted so scrapes are
// deterministic and diffable.
func (m *metrics) write(w io.Writer, cache CacheStats, stages stageStats, disk store.Stats, grid gridStats, g gauges) {
	req, sum, cnt, buckets, rejected := m.snapshot()

	fmt.Fprintln(w, "# HELP schematicd_requests_total Finished requests by endpoint and HTTP status.")
	fmt.Fprintln(w, "# TYPE schematicd_requests_total counter")
	keys := make([][2]string, 0, len(req))
	for k := range req {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, k := range keys {
		fmt.Fprintf(w, "schematicd_requests_total{endpoint=%q,code=%q} %d\n", k[0], k[1], req[k])
	}

	fmt.Fprintln(w, "# HELP schematicd_request_duration_seconds Wall time per request by endpoint.")
	fmt.Fprintln(w, "# TYPE schematicd_request_duration_seconds histogram")
	eps := make([]string, 0, len(cnt))
	for ep := range cnt {
		eps = append(eps, ep)
	}
	sort.Strings(eps)
	for _, ep := range eps {
		b := buckets[ep]
		cum := int64(0)
		for i, le := range latencyBuckets {
			cum += b[i]
			fmt.Fprintf(w, "schematicd_request_duration_seconds_bucket{endpoint=%q,le=%q} %d\n",
				ep, strconv.FormatFloat(le, 'g', -1, 64), cum)
		}
		cum += b[len(latencyBuckets)]
		fmt.Fprintf(w, "schematicd_request_duration_seconds_bucket{endpoint=%q,le=\"+Inf\"} %d\n", ep, cum)
		fmt.Fprintf(w, "schematicd_request_duration_seconds_sum{endpoint=%q} %g\n", ep, sum[ep])
		fmt.Fprintf(w, "schematicd_request_duration_seconds_count{endpoint=%q} %d\n", ep, cnt[ep])
	}

	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge("schematicd_queue_depth", "Requests waiting for a worker slot.", g.queue)
	gauge("schematicd_inflight_jobs", "Jobs currently holding a worker slot.", g.inflight)
	gauge("schematicd_workers", "Configured worker-pool size.", int64(g.workers))
	gauge("schematicd_queue_capacity", "Configured admission-queue capacity.", int64(g.queueCap))
	gauge("schematicd_goroutines", "Live goroutines in the daemon process.", int64(g.goroutines))
	gauge("schematicd_sse_subscribers", "Open SSE event-stream connections.", g.sseSubs)
	gauge("schematicd_runs_retained", "Runs held in the retained-run registry.", int64(g.runs))
	counter("schematicd_sse_dropped_events_total", "Events dropped on full subscriber queues (including evicted runs).", g.sseDropped)
	counter("schematicd_queue_rejected_total", "Requests rejected with 429 by admission control.", rejected)
	counter("schematicd_cache_hits_total", "Requests answered from a completed cache entry.", cache.Hits)
	counter("schematicd_cache_misses_total", "Requests that had to run the pipeline.", cache.Misses)
	counter("schematicd_cache_coalesced_total", "Requests coalesced onto an in-flight identical run.", cache.Coalesced)
	counter("schematicd_cache_evictions_total", "Cache entries dropped by the LRU bound.", cache.Evictions)
	fmt.Fprintln(w, "# HELP schematicd_stage_cache_total Lookups of the shared front-end and profile stages, by stage and outcome.")
	fmt.Fprintln(w, "# TYPE schematicd_stage_cache_total counter")
	for _, st := range []struct {
		name string
		c    CacheStats
	}{{"front", stages.front}, {"profile", stages.profile}} {
		fmt.Fprintf(w, "schematicd_stage_cache_total{stage=%q,result=\"coalesced\"} %d\n", st.name, st.c.Coalesced)
		fmt.Fprintf(w, "schematicd_stage_cache_total{stage=%q,result=\"hit\"} %d\n", st.name, st.c.Hits)
		fmt.Fprintf(w, "schematicd_stage_cache_total{stage=%q,result=\"miss\"} %d\n", st.name, st.c.Misses)
	}
	counter("schematicd_verify_states_total", "Persistent states explored across POST /v1/verify jobs.", g.verifyStates)
	counter("schematicd_verify_dedup_hits_total", "Hash-dedup hits across POST /v1/verify jobs.", g.verifyDedup)
	counter("schematicd_power_runs_total", "Emulate jobs run under an options.power environment.", g.powerRuns)
	counter("schematicd_store_hits_total", "Results served from the disk store (cross-restart and cross-replica hits).", disk.Hits)
	counter("schematicd_store_misses_total", "Disk-store lookups that found nothing.", disk.Misses)
	counter("schematicd_store_puts_total", "Results written through to the disk store.", disk.Puts)
	counter("schematicd_store_corrupt_total", "Disk-store entries that failed verification and were quarantined.", disk.Corrupt)
	counter("schematicd_store_evictions_total", "Disk-store entries removed by the capacity bound.", disk.Evictions)
	counter("schematicd_grid_runs_total", "POST /v1/grid requests that expanded and ran a cell matrix.", grid.runs)
	fmt.Fprintln(w, "# HELP schematicd_grid_cells_total Grid cells resolved, by how the result was obtained.")
	fmt.Fprintln(w, "# TYPE schematicd_grid_cells_total counter")
	fmt.Fprintf(w, "schematicd_grid_cells_total{source=\"cache\"} %d\n", grid.cellsCache)
	fmt.Fprintf(w, "schematicd_grid_cells_total{source=\"coalesced\"} %d\n", grid.cellsCoalesced)
	fmt.Fprintf(w, "schematicd_grid_cells_total{source=\"computed\"} %d\n", grid.cellsComputed)
	fmt.Fprintf(w, "schematicd_grid_cells_total{source=\"store\"} %d\n", grid.cellsStore)
	gauge("schematicd_grid_cells_inflight", "Grid cells currently being resolved.", grid.cellsInflight)
	d := int64(0)
	if g.draining {
		d = 1
	}
	gauge("schematicd_draining", "1 while the server is draining and refusing new work.", d)
}
