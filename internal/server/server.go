package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"schematic/internal/flight"
	"schematic/internal/ir"
	"schematic/internal/obs"
	"schematic/internal/store"
	"schematic/internal/trace"
)

// maxBody bounds request bodies; MiniC sources are small.
const maxBody = 8 << 20

// Config sizes the daemon. Zero values select the documented defaults.
type Config struct {
	// Workers is the job-pool size (0 = NumCPU). At most Workers jobs
	// run concurrently; further leaders wait in the admission queue.
	Workers int
	// QueueCap bounds the admission queue (0 = 64). A leader arriving
	// past the bound is rejected with 429 and a Retry-After header.
	QueueCap int
	// CacheCap bounds the content-addressed result cache (0 = 1024).
	CacheCap int
	// JobTimeout bounds every job (0 = 60s); a request's timeout_ms can
	// only shorten it.
	JobTimeout time.Duration
	// RunsCap bounds the retained-run registry behind GET /v1/runs
	// (0 = 128). Finished runs are evicted oldest-first; running runs
	// are never evicted.
	RunsCap int
	// RunEvents is the per-run event ring capacity for observed runs
	// (0 = obs.DefaultRing). An SSE client resuming from before the
	// oldest retained event gets a gap marker.
	RunEvents int
	// SubQueue bounds each SSE subscriber's event queue (0 = 1024). A
	// subscriber that falls further behind loses events (counted, never
	// blocking the emulator).
	SubQueue int
	// SSEHeartbeat is the idle keep-alive interval on event streams
	// (0 = 15s).
	SSEHeartbeat time.Duration
	// Store, when non-nil, is the disk-backed second tier under the
	// result cache: successful results are written through to it and
	// cache-missing leaders consult it before computing, so results
	// survive restarts and replicas sharing one store directory share
	// work. The caller opens it (and may share one handle across
	// servers in-process).
	Store *store.Store
	// GridCellCap bounds how many cells one POST /v1/grid may expand to
	// (0 = 2048).
	GridCellCap int
	// Logf, when non-nil, receives one line per finished job.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 64
	}
	if c.CacheCap <= 0 {
		c.CacheCap = 1024
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 60 * time.Second
	}
	if c.RunsCap <= 0 {
		c.RunsCap = 128
	}
	if c.RunEvents <= 0 {
		c.RunEvents = obs.DefaultRing
	}
	if c.SubQueue <= 0 {
		c.SubQueue = 1024
	}
	if c.SSEHeartbeat <= 0 {
		c.SSEHeartbeat = 15 * time.Second
	}
	if c.GridCellCap <= 0 {
		c.GridCellCap = 2048
	}
	return c
}

// Server is the schematicd HTTP service: four job endpoints behind
// single-flight content-addressed caching and bounded-queue admission,
// plus health and metrics. Create with New, mount Handler, and call
// Drain on shutdown.
type Server struct {
	cfg   Config
	cache *flight.Cache[string, any] // job results by request digest
	store *store.Store               // disk tier; nil when not configured
	met   *metrics

	// front and profile are prepare's stage caches: in memory only,
	// outside every digest (see prepare).
	front   *flight.Cache[string, *ir.Module]
	profile *flight.Cache[string, *trace.Profile]

	slots    chan struct{} // worker-pool semaphore
	queued   atomic.Int64  // leaders waiting for a slot
	inflight atomic.Int64  // jobs holding a slot

	runs    *runRegistry // retained emulations behind GET /v1/runs
	sseSubs atomic.Int64 // live SSE connections (metrics gauge)

	verifyStates atomic.Int64 // persistent states explored across verify jobs
	verifyDedup  atomic.Int64 // dedup hits across verify jobs

	powerRuns atomic.Int64 // emulate jobs run under an options.power environment

	gridRuns          atomic.Int64 // grids accepted (leaders that expanded cells)
	gridCellComputed  atomic.Int64 // cells that ran the pipeline
	gridCellCache     atomic.Int64 // cells answered from a completed cache entry
	gridCellStore     atomic.Int64 // cells answered from the disk tier
	gridCellCoalesced atomic.Int64 // cells coalesced onto in-flight identical runs
	gridCellsInflight atomic.Int64 // cells currently being resolved (gauge)

	mu       sync.Mutex // guards draining and the wg Add/Wait race
	draining bool
	drainCh  chan struct{}  // closed by BeginDrain; tears down SSE streams
	wg       sync.WaitGroup // requests admitted past the draining check

	baseCtx    context.Context // parent of every job; outlives the HTTP request
	baseCancel context.CancelFunc

	// gate, when non-nil, is called by every job after it takes a worker
	// slot and before it runs the pipeline — a package-internal test hook
	// for saturating the pool and observing real (non-coalesced) runs.
	gate func(kind string)
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		cache:      flight.New[string, any](cfg.CacheCap),
		store:      cfg.Store,
		met:        newMetrics(),
		front:      flight.New[string, *ir.Module](stageCap),
		profile:    flight.New[string, *trace.Profile](stageCap),
		runs:       newRunRegistry(cfg.RunsCap),
		slots:      make(chan struct{}, cfg.Workers),
		drainCh:    make(chan struct{}),
		baseCtx:    ctx,
		baseCancel: cancel,
	}
	return s
}

// Handler mounts the API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, kind := range []string{"compile", "emulate", "validate", "hunt", "verify"} {
		kind := kind
		mux.HandleFunc("POST /v1/"+kind, func(w http.ResponseWriter, r *http.Request) {
			start := time.Now()
			code := s.serveJob(kind, w, r)
			s.met.observe(kind, code, time.Since(start).Seconds())
		})
	}
	timed := func(name string, h func(http.ResponseWriter, *http.Request) int) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			start := time.Now()
			code := h(w, r)
			s.met.observe(name, code, time.Since(start).Seconds())
		}
	}
	mux.HandleFunc("POST /v1/grid", timed("grid", s.serveGrid))
	mux.HandleFunc("GET /v1/runs", timed("runs", s.serveRuns))
	mux.HandleFunc("GET /v1/runs/{digest}", timed("run", s.serveRunDetail))
	mux.HandleFunc("GET /v1/runs/{digest}/events", timed("events", s.serveEvents))
	mux.HandleFunc("GET /{$}", s.serveDashboard)
	mux.HandleFunc("GET /healthz", s.serveHealth)
	mux.HandleFunc("GET /metrics", s.serveMetrics)
	return mux
}

// CacheStats is a snapshot of one of the server's caches' counters.
type CacheStats = flight.Stats

// CacheStats snapshots the result-cache counters (also exported on
// /metrics; used directly by tests and schemactl).
func (s *Server) CacheStats() CacheStats { return s.cache.Stats() }

// BeginDrain flips the server into draining mode: job endpoints refuse
// new work with 503 while everything already admitted runs to
// completion.
func (s *Server) BeginDrain() {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.drainCh) // wakes every SSE stream for clean teardown
	}
	s.mu.Unlock()
}

// Drain begins draining and waits until every admitted request has
// finished, or ctx expires.
func (s *Server) Drain(ctx context.Context) error {
	s.BeginDrain()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("drain: %d request(s) still in flight: %w",
			s.inflight.Load()+s.queued.Load(), ctx.Err())
	}
}

// Close hard-cancels every job's context. Call after Drain fails, never
// instead of it.
func (s *Server) Close() { s.baseCancel() }

// enter admits one request past the draining gate.
func (s *Server) enter() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	s.wg.Add(1)
	return true
}

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Admission errors; completed into the cache entry so coalesced
// followers report the same outcome (uncacheable, so the next identical
// request retries).
var (
	errQueueFull = errors.New("job queue is full, retry later")
	errDraining  = errors.New("server is draining")
	errDeadline  = context.DeadlineExceeded
)

// errLeft ends a follower whose client went away before its leader
// finished.
var errLeft = errors.New("request cancelled while coalesced")

// admit takes a worker slot and returns its release. When the pool is
// busy, a request (queue true) waits in the bounded admission queue:
// errQueueFull when the queue is full, errDeadline when ctx ends first.
// A grid cell (queue false) waits for a slot outside the queue, because
// its grid was admitted as one request.
func (s *Server) admit(ctx context.Context, queue bool) (release func(), err error) {
	select {
	case s.slots <- struct{}{}:
	default:
		if queue {
			if s.queued.Add(1) > int64(s.cfg.QueueCap) {
				s.queued.Add(-1)
				s.met.reject()
				return nil, errQueueFull
			}
			defer s.queued.Add(-1)
		}
		select {
		case s.slots <- struct{}{}:
		case <-ctx.Done():
			return nil, errDeadline
		}
	}
	s.inflight.Add(1)
	return func() {
		s.inflight.Add(-1)
		<-s.slots
	}, nil
}

// serveJob is the common path of the five POST endpoints; it returns the
// HTTP status it wrote, for the metrics ledger.
func (s *Server) serveJob(kind string, w http.ResponseWriter, r *http.Request) int {
	if !s.enter() {
		return writeError(w, http.StatusServiceUnavailable, errDraining.Error())
	}
	defer s.wg.Done()

	var req Request
	r.Body = http.MaxBytesReader(w, r.Body, maxBody)
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		return writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
	}
	if err := req.normalize(kind); err != nil {
		return writeError(w, http.StatusBadRequest, err.Error())
	}
	if req.Options.Stream {
		return s.serveStream(kind, w, r, &req)
	}

	digest := req.digest(kind)
	val, _, err := s.resolve(r.Context(), kind, &req, digest, true)
	if errors.Is(err, errLeft) {
		// Nobody reads the response body, but the ledger still records
		// the outcome.
		return writeError(w, http.StatusGatewayTimeout, err.Error())
	}
	return s.respond(w, digest, val, err)
}

// resolve answers one job, for a request and a grid cell alike, and
// says where the answer came from: a completed cache entry ("cache"),
// an identical in-flight leader ("coalesced"), the disk store ("store"),
// or a worker slot and a pipeline run ("computed"). A follower stops
// waiting for its leader with errLeft when ctx ends; queue says how the
// leader takes its slot (see admit).
func (s *Server) resolve(ctx context.Context, kind string, req *Request, digest string, queue bool) (val any, source string, err error) {
	e, leader := s.cache.Begin(digest)
	if !leader {
		source = "coalesced"
		if e.Completed() {
			source = "cache"
		}
		if val, err = e.Wait(ctx); err != nil && ctx.Err() != nil {
			err = errLeft
		}
		return val, source, err
	}

	// Consult the disk tier before taking a worker slot: a store hit
	// costs a read and a checksum, not a pipeline run.
	if val, ok := s.storeGet(kind, digest); ok {
		s.cache.Complete(digest, e, val, nil, true)
		return val, "store", nil
	}

	release, err := s.admit(ctx, queue)
	if err != nil {
		// Wake any coalesced followers with the same outcome.
		s.cache.Complete(digest, e, nil, err, false)
		return nil, "", err
	}
	val, err = s.runJob(kind, req, digest)
	release()
	// Cancellation says nothing about the request itself: neither cache
	// nor persist it, or a restarted daemon would serve it to followers
	// that were promised a retry.
	cacheable := !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
	s.cache.Complete(digest, e, val, err, cacheable)
	if cacheable && err == nil {
		s.storePut(digest, val)
	}
	if s.cfg.Logf != nil {
		s.cfg.Logf("%s %s name=%s err=%v", kind, short(digest), req.Name, err)
	}
	return val, "computed", err
}

// jobContext derives a job's context from the server, not the HTTP
// request: a leader's disconnect must not kill the run its followers
// wait on. The deadline is the smaller of JobTimeout and the request's
// timeout_ms, and it is already running when the test gate is called.
func (s *Server) jobContext(kind string, timeoutMS int64) (context.Context, context.CancelFunc) {
	timeout := s.cfg.JobTimeout
	if t := time.Duration(timeoutMS) * time.Millisecond; t > 0 && t < timeout {
		timeout = t
	}
	ctx, cancel := context.WithTimeout(s.baseCtx, timeout)
	if s.gate != nil {
		s.gate(kind)
	}
	return ctx, cancel
}

// runJob executes the pipeline for one leader under the job deadline.
func (s *Server) runJob(kind string, req *Request, digest string) (any, error) {
	ctx, cancel := s.jobContext(kind, req.Options.TimeoutMS)
	defer cancel()
	switch kind {
	case "compile":
		return valOrNil(s.runCompile(ctx, req, digest))
	case "emulate":
		if req.Options.Power != "" {
			s.powerRuns.Add(1)
		}
		return valOrNil(s.runEmulateJob(ctx, req, digest, nil))
	case "validate":
		return valOrNil(runValidate(ctx, req, digest))
	case "hunt":
		return valOrNil(runHunt(ctx, req, digest))
	case "verify":
		return valOrNil(s.runVerifyJob(ctx, req, digest))
	}
	return nil, fmt.Errorf("unknown job kind %q", kind)
}

// valOrNil erases the concrete response pointer type so a typed nil
// never lands in the cache as a non-nil any.
func valOrNil[T any](v *T, err error) (any, error) {
	if err != nil {
		return nil, err
	}
	return v, nil
}

// serveStream handles emulate with options.stream: an NDJSON event
// stream terminated by one result (or error) record. Streams go through
// admission but bypass the cache — the byte stream is the product.
func (s *Server) serveStream(kind string, w http.ResponseWriter, r *http.Request, req *Request) int {
	digest := req.digest(kind)
	release, err := s.admit(r.Context(), true)
	if err != nil {
		return s.respond(w, digest, nil, err)
	}
	defer release()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Schematic-Digest", digest)
	w.WriteHeader(http.StatusOK)

	ctx, cancel := s.jobContext(kind, req.Options.TimeoutMS)
	defer cancel()
	sw := obs.NewStreamWriter(w)
	resp, err := s.runEmulateJob(ctx, req, digest, sw)
	if ferr := sw.Flush(); ferr != nil && err == nil {
		err = ferr
	}
	enc := json.NewEncoder(w)
	if err != nil {
		_ = enc.Encode(struct {
			Kind  string `json:"kind"`
			Error string `json:"error"`
		}{"error", err.Error()})
	} else {
		_ = enc.Encode(struct {
			Kind   string           `json:"kind"`
			Result *EmulateResponse `json:"result"`
		}{"result", resp})
	}
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
	return http.StatusOK
}

// statusOf maps a job error to its HTTP status.
func statusOf(err error) int {
	var pe *progError
	switch {
	case err == nil:
		return http.StatusOK
	case errors.Is(err, errQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, errDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	case errors.As(err, &pe):
		return http.StatusUnprocessableEntity
	default:
		return http.StatusInternalServerError
	}
}

// respond writes the JSON result (or error) and returns the status.
func (s *Server) respond(w http.ResponseWriter, digest string, val any, err error) int {
	code := statusOf(err)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Schematic-Digest", digest)
	if code == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	w.WriteHeader(code)
	if err != nil {
		_ = json.NewEncoder(w).Encode(ErrorResponse{Error: err.Error()})
	} else {
		_ = json.NewEncoder(w).Encode(val)
	}
	return code
}

// writeError writes a bare JSON error and returns the status.
func writeError(w http.ResponseWriter, code int, msg string) int {
	w.Header().Set("Content-Type", "application/json")
	if code == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(ErrorResponse{Error: msg})
	return code
}

// Health is the GET /healthz body.
type Health struct {
	Status       string `json:"status"` // "ok" or "draining"
	Workers      int    `json:"workers"`
	Inflight     int64  `json:"inflight"`
	QueueDepth   int64  `json:"queue_depth"`
	CacheEntries int    `json:"cache_entries"`
}

func (s *Server) serveHealth(w http.ResponseWriter, r *http.Request) {
	h := Health{
		Status:       "ok",
		Workers:      s.cfg.Workers,
		Inflight:     s.inflight.Load(),
		QueueDepth:   s.queued.Load(),
		CacheEntries: s.cache.Len(),
	}
	if s.isDraining() {
		h.Status = "draining"
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(h)
}

func (s *Server) serveMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.met.write(w, s.cache.Stats(), stageStats{s.front.Stats(), s.profile.Stats()}, s.StoreStats(), gridStats{
		runs:           s.gridRuns.Load(),
		cellsComputed:  s.gridCellComputed.Load(),
		cellsCache:     s.gridCellCache.Load(),
		cellsStore:     s.gridCellStore.Load(),
		cellsCoalesced: s.gridCellCoalesced.Load(),
		cellsInflight:  s.gridCellsInflight.Load(),
	}, gauges{
		queue:        s.queued.Load(),
		inflight:     s.inflight.Load(),
		workers:      s.cfg.Workers,
		queueCap:     s.cfg.QueueCap,
		draining:     s.isDraining(),
		goroutines:   runtime.NumGoroutine(),
		sseSubs:      s.sseSubs.Load(),
		sseDropped:   s.runs.droppedTotal(),
		runs:         s.runs.len(),
		verifyStates: s.verifyStates.Load(),
		verifyDedup:  s.verifyDedup.Load(),
		powerRuns:    s.powerRuns.Load(),
	})
}
