package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"schematic/internal/bench"
)

// POST /v1/grid runs a benchmark × technique × TBPF matrix server-side:
// the request expands into one emulate-kind cell per combination, each
// cell shares the content-addressed result cache and disk store with
// plain POST /v1/emulate (so overlapping grids, repeated grids, and
// grids against a restarted daemon recompute only genuinely new cells),
// and cells schedule through the same bounded worker pool. The grid
// registers in the runs registry (kind=grid) and streams one SSE
// progress event per completed cell on GET /v1/runs/{digest}/events.
//
// The assembled GridResponse itself is intentionally NOT cached or
// persisted: reassembly from per-cell hits is cheap, and the response
// honestly reports where each cell came from on this submission —
// a repeat therefore shows cells_computed == 0 instead of replaying the
// first run's counters.

// GridRequest is the body of POST /v1/grid. Empty axes default to the
// full paper grid: all bundled benchmarks, every placement technique,
// TBPF 10000, and the built-in exhaustion physics (one empty power
// spec). Options apply to every cell and must leave the axis knobs
// (technique, tbpf, eb_nj, power) unset.
type GridRequest struct {
	Benches    []string `json:"benches,omitempty"`
	Techniques []string `json:"techniques,omitempty"`
	TBPFs      []int64  `json:"tbpfs,omitempty"`
	Powers     []string `json:"powers,omitempty"`
	Options    Options  `json:"options"`
}

// GridCellResult is one cell of the assembled table. Source reports how
// this submission resolved the cell: "computed" (ran the pipeline),
// "cache" (completed in-memory entry), "coalesced" (attached to an
// identical in-flight run), or "store" (disk tier).
type GridCellResult struct {
	Bench     string           `json:"bench"`
	Technique string           `json:"technique"`
	TBPF      int64            `json:"tbpf"`
	Power     string           `json:"power,omitempty"`
	Digest    string           `json:"digest"`
	Source    string           `json:"source"`
	Error     string           `json:"error,omitempty"`
	Result    *EmulateResponse `json:"result,omitempty"`
}

// GridResponse is the body of POST /v1/grid: the cell table in
// bench-major, then technique, then TBPF order, plus resolution
// counters for this submission.
type GridResponse struct {
	Digest     string   `json:"digest"`
	Benches    []string `json:"benches"`
	Techniques []string `json:"techniques"`
	TBPFs      []int64  `json:"tbpfs"`
	Powers     []string `json:"powers"`

	Cells []GridCellResult `json:"cells"`

	CellsTotal     int `json:"cells_total"`
	CellsComputed  int `json:"cells_computed"`
	CellsFromCache int `json:"cells_from_cache"`
	CellsFromStore int `json:"cells_from_store"`
	CellsCoalesced int `json:"cells_coalesced"`
	CellErrors     int `json:"cell_errors"`

	ElapsedMS float64 `json:"elapsed_ms"`
}

// gridTechniques is the default technique axis: every placement
// technique (the paper grid), excluding the front-end-only "none".
var gridTechniques = []string{"schematic", "ratchet", "mementos", "rockclimb", "alfred", "allnvm"}

// gridCell is one expanded cell: its bench as the request named it, the
// normalized emulate request and its content address.
type gridCell struct {
	bench  string
	req    Request
	digest string
}

// normalizeGrid fills the axis defaults and rejects per-cell option
// conflicts. Each cell is validated by the emulate request's normalize,
// and the canonical technique and power axes are read back from the
// normalized cells. It returns the expanded cells in table order and
// the grid's own digest.
func (s *Server) normalizeGrid(greq *GridRequest) ([]gridCell, string, error) {
	if greq.Options.Technique != "" || greq.Options.TBPF != 0 || greq.Options.EB != 0 || greq.Options.Power != "" {
		return nil, "", fmt.Errorf("options.technique, options.tbpf, options.eb_nj and options.power are grid axes; set benches/techniques/tbpfs/powers instead")
	}
	if greq.Options.Stream {
		return nil, "", fmt.Errorf("options.stream is not supported on grid cells")
	}
	if len(greq.Benches) == 0 {
		greq.Benches = append([]string(nil), bench.Order...)
	}
	if len(greq.Techniques) == 0 {
		greq.Techniques = append([]string(nil), gridTechniques...)
	}
	if len(greq.TBPFs) == 0 {
		greq.TBPFs = []int64{10_000}
	}
	for _, tb := range greq.TBPFs {
		if tb <= 0 {
			return nil, "", fmt.Errorf("tbpfs must be positive, got %d", tb)
		}
	}
	if len(greq.Powers) == 0 {
		greq.Powers = []string{""} // built-in exhaustion physics
	}
	total := len(greq.Benches) * len(greq.Techniques) * len(greq.TBPFs) * len(greq.Powers)
	if total > s.cfg.GridCellCap {
		return nil, "", fmt.Errorf("grid expands to %d cells, cap is %d", total, s.cfg.GridCellCap)
	}

	cells := make([]gridCell, 0, total)
	for _, b := range greq.Benches {
		for _, tq := range greq.Techniques {
			for _, tb := range greq.TBPFs {
				for _, pw := range greq.Powers {
					req := Request{Bench: b, Options: greq.Options}
					req.Options.Technique = tq
					req.Options.TBPF = tb
					req.Options.Power = pw
					if err := req.normalize("emulate"); err != nil {
						return nil, "", fmt.Errorf("cell %s/%s/%d/%s: %w", b, tq, tb, pw, err)
					}
					cells = append(cells, gridCell{bench: b, req: req, digest: req.digest("emulate")})
				}
			}
		}
	}
	// Cells run bench-major, then technique, TBPF and power, so technique
	// i first appears at cell i·|tbpfs|·|powers| and power i at cell i.
	for i := range greq.Techniques {
		greq.Techniques[i] = cells[i*len(greq.TBPFs)*len(greq.Powers)].req.Options.Technique
	}
	for i := range greq.Powers {
		greq.Powers[i] = cells[i].req.Options.Power
	}

	canon := struct {
		Kind       string   `json:"kind"`
		Benches    []string `json:"benches"`
		Techniques []string `json:"techniques"`
		TBPFs      []int64  `json:"tbpfs"`
		Powers     []string `json:"powers"`
		Options    Options  `json:"options"`
	}{"grid", greq.Benches, greq.Techniques, greq.TBPFs, greq.Powers, greq.Options}
	raw, _ := json.Marshal(canon)
	sum := sha256.Sum256(raw)
	return cells, hex.EncodeToString(sum[:]), nil
}

// serveGrid is POST /v1/grid. The handler holds the drain WaitGroup for
// the whole grid, and every cell's job context derives from the server,
// so an admitted grid always runs to completion: a client disconnect
// mid-grid neither kills cells other requests coalesced onto nor leaves
// the table half-assembled, and drain waits for it.
func (s *Server) serveGrid(w http.ResponseWriter, r *http.Request) int {
	if !s.enter() {
		return writeError(w, http.StatusServiceUnavailable, errDraining.Error())
	}
	defer s.wg.Done()

	var greq GridRequest
	r.Body = http.MaxBytesReader(w, r.Body, maxBody)
	if err := json.NewDecoder(r.Body).Decode(&greq); err != nil {
		return writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
	}
	cells, gridDigest, err := s.normalizeGrid(&greq)
	if err != nil {
		return writeError(w, http.StatusBadRequest, err.Error())
	}

	prog := newGridProgress()
	rs := newRunState("grid", gridDigest, fmt.Sprintf("grid[%d]", len(cells)), "")
	rs.prog = prog
	rs = s.runs.register(rs)

	s.gridRuns.Add(1)
	start := time.Now()
	resp := s.runGrid(&greq, cells, gridDigest, prog)
	resp.ElapsedMS = float64(time.Since(start)) / float64(time.Millisecond)

	if rs != nil {
		rs.finish(resp, nil)
	}
	prog.close()
	if s.cfg.Logf != nil {
		s.cfg.Logf("grid %s cells=%d computed=%d cache=%d store=%d coalesced=%d errors=%d",
			short(gridDigest), resp.CellsTotal, resp.CellsComputed, resp.CellsFromCache,
			resp.CellsFromStore, resp.CellsCoalesced, resp.CellErrors)
	}
	return s.respond(w, gridDigest, resp, nil)
}

// runGrid resolves every cell concurrently and assembles the table.
func (s *Server) runGrid(greq *GridRequest, cells []gridCell, gridDigest string, prog *gridProgress) *GridResponse {
	resp := &GridResponse{
		Digest:     gridDigest,
		Benches:    greq.Benches,
		Techniques: greq.Techniques,
		TBPFs:      greq.TBPFs,
		Powers:     greq.Powers,
		Cells:      make([]GridCellResult, len(cells)),
		CellsTotal: len(cells),
	}
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex // guards the counters and prog ordering
		done int
	)
	for i := range cells {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := &cells[i]
			s.gridCellsInflight.Add(1)
			// A cell's follower waits for its leader, and its leader for a
			// slot outside the admission queue: the grid was admitted as
			// one request.
			v, source, err := s.resolve(context.Background(), "emulate", &c.req, c.digest, false)
			s.gridCellsInflight.Add(-1)
			val := asEmulate(v)

			o := &c.req.Options
			cell := GridCellResult{
				Bench:     c.bench,
				Technique: o.Technique,
				TBPF:      o.TBPF,
				Power:     o.Power,
				Digest:    c.digest,
				Source:    source,
				Result:    val,
			}
			if err != nil {
				cell.Error = err.Error()
			}
			resp.Cells[i] = cell // distinct index per goroutine; no lock needed

			mu.Lock()
			switch source {
			case "computed":
				resp.CellsComputed++
				s.gridCellComputed.Add(1)
			case "cache":
				resp.CellsFromCache++
				s.gridCellCache.Add(1)
			case "store":
				resp.CellsFromStore++
				s.gridCellStore.Add(1)
			case "coalesced":
				resp.CellsCoalesced++
				s.gridCellCoalesced.Add(1)
			}
			if err != nil {
				resp.CellErrors++
			}
			done++
			ev := gridCellEvent{
				K: "cell", I: i,
				Bench: c.bench, Technique: o.Technique, TBPF: o.TBPF, Power: o.Power,
				Digest: c.digest, Source: source,
				Done: done, Total: len(cells),
			}
			if val != nil {
				ev.Verdict = val.Verdict
			}
			if err != nil {
				ev.Error = err.Error()
			}
			mu.Unlock()
			prog.append(ev)
		}(i)
	}
	wg.Wait()
	return resp
}

// asEmulate narrows a cache value; a foreign type (impossible unless a
// digest collides across kinds) reads as a missing result.
func asEmulate(val any) *EmulateResponse {
	r, _ := val.(*EmulateResponse)
	return r
}

// gridCellEvent is the SSE progress record for one completed cell.
type gridCellEvent struct {
	K         string `json:"k"`
	I         int    `json:"i"`
	Bench     string `json:"bench"`
	Technique string `json:"technique"`
	TBPF      int64  `json:"tbpf"`
	Power     string `json:"power,omitempty"`
	Digest    string `json:"digest"`
	Source    string `json:"source"`
	Verdict   string `json:"verdict,omitempty"`
	Error     string `json:"error,omitempty"`
	Done      int    `json:"done"`
	Total     int    `json:"total"`
}

// gridProgress is the grid's append-only progress log: one record per
// completed cell, fully retained (grids are bounded by GridCellCap, so
// no ring is needed), fanned out to SSE subscribers via a broadcast
// wake channel.
type gridProgress struct {
	mu     sync.Mutex
	events [][]byte // marshaled gridCellEvent, index == seq
	wake   chan struct{}
	closed bool
}

func newGridProgress() *gridProgress {
	return &gridProgress{wake: make(chan struct{})}
}

// append records one cell completion and wakes every waiting subscriber.
func (p *gridProgress) append(ev gridCellEvent) {
	data, _ := json.Marshal(ev)
	p.mu.Lock()
	p.events = append(p.events, data)
	close(p.wake)
	p.wake = make(chan struct{})
	p.mu.Unlock()
}

// close marks the log complete and wakes subscribers one last time.
func (p *gridProgress) close() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.wake)
		p.wake = make(chan struct{})
	}
	p.mu.Unlock()
}

// len returns the number of records logged so far.
func (p *gridProgress) len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.events)
}

// snapshot returns the records from index start (at most len()) on,
// whether the log is complete, and a channel that closes on the next
// append or close.
func (p *gridProgress) snapshot(start int) ([][]byte, bool, <-chan struct{}) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.events[start:], p.closed, p.wake
}
