package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"schematic/internal/emulator"
	"schematic/internal/obs"
	"schematic/internal/verify"
)

// runState is one emulation the daemon has run (or is running),
// retained for the live console: status and result for the runs API,
// plus — for observed runs — the event hub feeding SSE subscribers and
// the collector building the per-site energy attribution.
type runState struct {
	digest    string
	name      string
	technique string
	kind      string // "emulate", "verify", or "grid"
	stream    bool
	observed  bool
	started   time.Time

	hub  *obs.Hub       // nil for unobserved runs
	coll *obs.Collector // non-nil iff hub is; read under hub.Sync while live

	prog *gridProgress // non-nil for grid runs: per-cell SSE progress log

	mu         sync.Mutex
	status     string // "running", "done", "error"
	finished   time.Time
	result     *EmulateResponse
	gridResult *GridResponse   // terminal grid table (kind "grid")
	verdict    string          // terminal verdict; also covers verify runs (no result)
	search     *SearchProgress // a verify run's latest search progress
	errMsg     string
	done       chan struct{} // closed by finish
}

// newRunState builds a registrable running state; callers set the
// kind-specific fields (hub/coll/stream/prog) before registering it.
func newRunState(kind, digest, name, technique string) *runState {
	return &runState{
		digest:    digest,
		name:      name,
		technique: technique,
		kind:      kind,
		started:   time.Now(),
		status:    "running",
		done:      make(chan struct{}),
	}
}

// finish publishes the run's terminal state: the error, or the product
// and the verdict it carries. An emulate response is the run's result; a
// verify response leaves only its verdict; a grid keeps its table, and
// its verdict summarizes the cells (cell errors live inside the table,
// so a grid always lands "done").
func (rs *runState) finish(product any, err error) {
	rs.mu.Lock()
	rs.finished = time.Now()
	rs.status = "done"
	if err != nil {
		rs.status = "error"
		rs.errMsg = err.Error()
	} else {
		switch p := product.(type) {
		case *EmulateResponse:
			rs.result, rs.verdict = p, p.Verdict
		case *VerifyResponse:
			rs.verdict = p.Verdict
			if rs.verdict == "" && p.Skipped != "" {
				rs.verdict = "skipped"
			}
		case *GridResponse:
			rs.gridResult, rs.verdict = p, "complete"
			if p.CellErrors > 0 {
				rs.verdict = fmt.Sprintf("%d/%d cells failed", p.CellErrors, p.CellsTotal)
			}
		}
	}
	close(rs.done)
	rs.mu.Unlock()
}

func (rs *runState) running() bool {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.status == "running"
}

func (rs *runState) summary() RunSummary {
	rs.mu.Lock()
	s := RunSummary{
		Digest:    rs.digest,
		Name:      rs.name,
		Technique: rs.technique,
		Kind:      rs.kind,
		Status:    rs.status,
		Observed:  rs.observed,
		Stream:    rs.stream,
		StartedAt: rs.started.UTC().Format(time.RFC3339Nano),
	}
	end := rs.finished
	if rs.status == "running" {
		end = time.Now()
	}
	s.ElapsedMS = float64(end.Sub(rs.started)) / float64(time.Millisecond)
	s.Verdict = rs.verdict
	s.Error = rs.errMsg
	rs.mu.Unlock()
	if rs.hub != nil {
		s.Events = rs.hub.Emitted()
		s.EventsRetained = rs.hub.Retained()
		s.Subscribers = rs.hub.Subscribers()
		s.DroppedEvents = rs.hub.Dropped()
	}
	return s
}

// detail extends the summary with the collector's live ledgers. For a
// running observed run the counters and site table are a consistent
// mid-run snapshot (taken under the hub lock, excluding the emulator).
func (rs *runState) detail() RunDetail {
	d := RunDetail{RunSummary: rs.summary()}
	if rs.coll != nil {
		read := func() {
			d.PowerFailures = rs.coll.PowerFailures
			d.Sleeps = rs.coll.Sleeps
			d.PoisonReads = rs.coll.PoisonReads
			for _, st := range rs.coll.Sites() {
				where := st.Func
				if st.Block != "" {
					where += "." + st.Block
				}
				d.Sites = append(d.Sites, SiteEnergy{
					Site:       st.Site,
					Where:      where,
					Fires:      st.Fires,
					Saves:      st.Saves,
					Restores:   st.Restores,
					BytesSaved: st.BytesSaved,
					SaveNJ:     st.SaveEnergy,
					RestoreNJ:  st.RestoreEnergy,
					ReexecNJ:   st.ReexecEnergy,
					TotalNJ:    st.Total(),
				})
			}
		}
		rs.hub.Sync(read)
	}
	rs.mu.Lock()
	d.Result, d.Grid = rs.result, rs.gridResult // nil while still running
	d.Search = rs.search
	rs.mu.Unlock()
	return d
}

// runRegistry retains finished runs (bounded FIFO) plus everything
// in flight, keyed by request digest.
type runRegistry struct {
	mu             sync.Mutex
	cap            int
	runs           map[string]*runState
	order          []*runState // insertion order, for eviction and listing
	droppedEvicted int64       // dropped-event counts of evicted hubs
}

func newRunRegistry(capacity int) *runRegistry {
	return &runRegistry{cap: capacity, runs: make(map[string]*runState)}
}

// register inserts a fresh run built by newRunState. A finished run
// with the same digest is replaced (a re-run supersedes it); if one is
// still running — possible when a streamed request bypasses the cache,
// or for a repeated grid — the new run proceeds unregistered and
// register returns nil.
func (g *runRegistry) register(rs *runState) *runState {
	g.mu.Lock()
	defer g.mu.Unlock()
	if old, ok := g.runs[rs.digest]; ok {
		if old.running() {
			return nil
		}
		g.removeLocked(old)
	}
	g.runs[rs.digest] = rs
	g.order = append(g.order, rs)
	g.evictLocked()
	return rs
}

// removeLocked drops a run from the index and accumulates its drop
// counter so /metrics stays monotonic across evictions.
func (g *runRegistry) removeLocked(rs *runState) {
	delete(g.runs, rs.digest)
	for i, o := range g.order {
		if o == rs {
			g.order = append(g.order[:i], g.order[i+1:]...)
			break
		}
	}
	if rs.hub != nil {
		g.droppedEvicted += rs.hub.Dropped()
	}
}

// evictLocked enforces the retention bound, oldest finished runs first.
// Running runs are never evicted (their hubs feed live subscribers), so
// the registry can transiently exceed cap by the worker-pool size.
func (g *runRegistry) evictLocked() {
	for len(g.runs) > g.cap {
		evicted := false
		for _, rs := range g.order {
			if !rs.running() {
				g.removeLocked(rs)
				evicted = true
				break
			}
		}
		if !evicted {
			return
		}
	}
}

// lookup resolves a full digest or a unique prefix (>= 8 chars).
func (g *runRegistry) lookup(digest string) *runState {
	g.mu.Lock()
	defer g.mu.Unlock()
	if rs, ok := g.runs[digest]; ok {
		return rs
	}
	if len(digest) < 8 {
		return nil
	}
	var found *runState
	for k, rs := range g.runs {
		if strings.HasPrefix(k, digest) {
			if found != nil {
				return nil // ambiguous
			}
			found = rs
		}
	}
	return found
}

// list returns the retained runs, newest first.
func (g *runRegistry) list() []*runState {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]*runState, len(g.order))
	for i, rs := range g.order {
		out[len(out)-1-i] = rs
	}
	return out
}

func (g *runRegistry) len() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.runs)
}

// droppedTotal is the hub drop count across retained and evicted runs.
func (g *runRegistry) droppedTotal() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	total := g.droppedEvicted
	for _, rs := range g.order {
		if rs.hub != nil {
			total += rs.hub.Dropped()
		}
	}
	return total
}

// runEmulateJob wraps runEmulate with live-console bookkeeping: the run
// is registered before execution, an observed run gets a hub (ring
// retention + SSE fan-out) feeding the attribution collector, and the
// terminal state is published before the hub closes so a subscriber
// that sees the channel close always finds the result.
func (s *Server) runEmulateJob(ctx context.Context, req *Request, digest string, stream emulator.Observer) (*EmulateResponse, error) {
	var (
		hub      *obs.Hub
		coll     *obs.Collector
		observer = stream
	)
	if req.Options.Observe {
		coll = obs.NewCollector()
		hub = obs.NewHub(s.cfg.RunEvents, coll)
		observer = emulator.MultiObserver(hub, stream)
	}
	rs := newRunState("emulate", digest, req.Name, req.Options.Technique)
	rs.stream = stream != nil
	rs.observed = hub != nil
	rs.hub = hub
	rs.coll = coll
	rs = s.runs.register(rs)
	resp, err := s.runEmulate(ctx, req, digest, observer)
	if rs != nil {
		rs.finish(resp, err)
	}
	if hub != nil {
		hub.Close()
	}
	return resp, err
}

// runVerifyJob wraps runVerify with registry bookkeeping (so long
// model-checking runs are visible in GET /v1/runs while in flight, with
// their latest search progress in GET /v1/runs/{digest}) and
// accumulates the explored-state counters for /metrics.
func (s *Server) runVerifyJob(ctx context.Context, req *Request, digest string) (*VerifyResponse, error) {
	rs := s.runs.register(newRunState("verify", digest, req.Name, req.Options.Technique))
	var progress func(verify.Progress)
	if rs != nil || s.verifyProgress != nil {
		progress = func(p verify.Progress) {
			if rs != nil {
				sp := &SearchProgress{States: p.States, Explored: p.Explored, Frontier: p.Frontier, Edges: p.Edges,
					DedupHits: p.Dedup, Depth: p.Depth, Merged: p.Merged, SkippedSteps: p.SkippedSteps}
				rs.mu.Lock()
				rs.search = sp
				rs.mu.Unlock()
			}
			if s.verifyProgress != nil {
				s.verifyProgress(ctx, p)
			}
		}
	}
	resp, err := runVerify(ctx, req, digest, progress)
	if rs != nil {
		rs.finish(resp, err)
	}
	if resp != nil {
		s.verifyStates.Add(int64(resp.States))
		s.verifyDedup.Add(resp.DedupHits)
	}
	return resp, err
}

// serveRuns is GET /v1/runs.
func (s *Server) serveRuns(w http.ResponseWriter, r *http.Request) int {
	resp := RunsResponse{Runs: []RunSummary{}}
	for _, rs := range s.runs.list() {
		resp.Runs = append(resp.Runs, rs.summary())
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
	return http.StatusOK
}

// serveRunDetail is GET /v1/runs/{digest}.
func (s *Server) serveRunDetail(w http.ResponseWriter, r *http.Request) int {
	rs := s.runs.lookup(r.PathValue("digest"))
	if rs == nil {
		return writeError(w, http.StatusNotFound, "unknown run digest")
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Schematic-Digest", rs.digest)
	_ = json.NewEncoder(w).Encode(rs.detail())
	return http.StatusOK
}

// sseWriter renders Server-Sent Events. Write errors are latched; after
// the first one every later write is a no-op (the client is gone — the
// request context will end the handler).
type sseWriter struct {
	w    http.ResponseWriter
	fl   http.Flusher
	last int64 // last event seq written, for gap detection
	err  error
}

func (e *sseWriter) writef(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}

// event writes one emulator event, preceded by a gap marker when the
// stream jumped (ring eviction before replay, or queue overflow drops).
// An event at or before last, as after a resume id past the newest
// event, missed nothing.
func (e *sseWriter) event(se obs.SeqEvent) {
	if missed := se.Seq - 1 - e.last; missed > 0 {
		e.gap(missed)
	}
	e.last = se.Seq
	data, _ := json.Marshal(seqRecord{I: se.Seq, Record: obs.NewRecord(se.Event)})
	e.writef("id: %d\ndata: %s\n\n", se.Seq, data)
}

// gap tells the client how many events it missed. Gap markers carry no
// id: a client resuming from its last real event id re-learns the gap.
func (e *sseWriter) gap(missed int64) {
	e.writef("event: gap\ndata: {\"k\":\"gap\",\"missed\":%d}\n\n", missed)
}

func (e *sseWriter) comment(text string) {
	e.writef(": %s\n\n", text)
	e.flush()
}

// terminal writes the run's closing record: kind "error", or kind
// "result" carrying the emulate response (null for a verify run) or, for
// a grid, the assembled table under "grid". Its id is one past the last
// event's, so a resume from the terminal id replays nothing but it.
func (e *sseWriter) terminal(rs *runState, id int64) {
	rs.mu.Lock()
	kind, key, val := "result", "result", any(rs.result)
	if rs.kind == "grid" {
		key, val = "grid", rs.gridResult
	}
	if rs.errMsg != "" {
		kind, key, val = "error", "error", rs.errMsg
	}
	rs.mu.Unlock()
	data, _ := json.Marshal(val)
	e.writef("id: %d\nevent: %s\ndata: {\"i\":%d,\"k\":\"%s\",\"%s\":%s}\n\n", id, kind, id, kind, key, data)
	e.flush()
}

// drain announces server shutdown and ends the stream.
func (e *sseWriter) drain() {
	e.writef("event: drain\ndata: {\"k\":\"drain\"}\n\n")
	e.flush()
}

func (e *sseWriter) flush() {
	if e.err == nil {
		e.fl.Flush()
	}
}

// seqRecord is an obs event record prefixed with its stream position —
// the SSE data payload, and the NDJSON line schemactl tail prints.
type seqRecord struct {
	I int64 `json:"i"`
	obs.Record
}

// lastEventID parses the resume position: the Last-Event-ID header a
// reconnecting EventSource (or schemactl tail) sends, or the ?from=
// query parameter. -1 (the default) streams from the beginning.
func lastEventID(r *http.Request) int64 {
	v := r.Header.Get("Last-Event-ID")
	if v == "" {
		v = r.URL.Query().Get("from")
	}
	if n, err := strconv.ParseInt(v, 10, 64); err == nil && n >= -1 {
		return n
	}
	return -1
}

// serveEvents is GET /v1/runs/{digest}/events: the run's event stream
// as Server-Sent Events. Retained history replays first (honoring
// Last-Event-ID), then live events follow until the run finishes with a
// terminal "result"/"error" record. Heartbeat comments keep idle
// connections alive; the stream tears down cleanly when the client
// disconnects and when the server drains.
func (s *Server) serveEvents(w http.ResponseWriter, r *http.Request) int {
	if !s.enter() {
		return writeError(w, http.StatusServiceUnavailable, errDraining.Error())
	}
	defer s.wg.Done()
	rs := s.runs.lookup(r.PathValue("digest"))
	if rs == nil {
		return writeError(w, http.StatusNotFound, "unknown run digest")
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		return writeError(w, http.StatusInternalServerError, "response writer cannot stream")
	}
	after := lastEventID(r)

	h := w.Header()
	h.Set("Content-Type", "text/event-stream; charset=utf-8")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Schematic-Digest", rs.digest)
	w.WriteHeader(http.StatusOK)
	s.sseSubs.Add(1)
	defer s.sseSubs.Add(-1)

	esw := &sseWriter{w: w, fl: fl, last: after}
	hb := time.NewTicker(s.cfg.SSEHeartbeat)
	defer hb.Stop()

	if rs.prog != nil {
		// Grid run: replay the per-cell progress log (event id N = the
		// Nth completed cell, so Last-Event-ID resumes cleanly), then
		// follow live completions until the grid's terminal record.
		// Ids are 1-based, so index next is the first unseen record. An
		// id at or past the log's end is caught up, as on the hub path.
		next := int(min(max(after, 0), int64(rs.prog.len())))
		for {
			events, closed, wake := rs.prog.snapshot(next)
			for _, data := range events {
				next++
				esw.writef("id: %d\nevent: cell\ndata: %s\n\n", next, data)
			}
			if len(events) > 0 {
				esw.flush()
			}
			if closed {
				esw.terminal(rs, int64(next)+1)
				return http.StatusOK
			}
			select {
			case <-wake:
			case <-hb.C:
				esw.comment("hb")
			case <-r.Context().Done():
				return http.StatusOK
			case <-s.drainCh:
				esw.drain()
				return http.StatusOK
			}
		}
	}

	if rs.hub == nil {
		// Unobserved run: no event stream, just heartbeats until the
		// terminal record.
		for {
			select {
			case <-rs.done:
				esw.terminal(rs, 0)
				return http.StatusOK
			case <-hb.C:
				esw.comment("hb")
			case <-r.Context().Done():
				return http.StatusOK
			case <-s.drainCh:
				esw.drain()
				return http.StatusOK
			}
		}
	}

	sub := rs.hub.Subscribe(after, s.cfg.SubQueue)
	defer rs.hub.Unsubscribe(sub)
	buf := make([]obs.SeqEvent, 512)
	for {
		// Drain everything pending before flushing, so a hot stream
		// costs one flush per batch, not per event.
		for {
			n, open := sub.Next(buf)
			for i := 0; i < n; i++ {
				esw.event(buf[i])
			}
			if n == len(buf) {
				continue
			}
			esw.flush()
			if !open {
				esw.terminal(rs, rs.hub.Emitted())
				return http.StatusOK
			}
			break
		}
		select {
		case <-sub.Ready():
		case <-hb.C:
			esw.comment("hb")
		case <-r.Context().Done():
			return http.StatusOK
		case <-s.drainCh:
			esw.drain()
			return http.StatusOK
		}
	}
}
