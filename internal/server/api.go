// Package server is the long-running compile-and-emulate service around
// the SCHEMATIC pipeline: an HTTP JSON API over the compiler
// (internal/minic + placement techniques), the intermittent emulator,
// the translation validator (internal/transval), and the
// crash-consistency hunter (internal/crashtest).
//
// Where the cmd/ one-shot tools rebuild all state per invocation and
// exit, the daemon keeps warm state between queries: requests are
// content-addressed (SHA-256 over a canonical encoding of source +
// options) into a single-flight LRU result cache, so N identical
// concurrent submissions trigger exactly one pipeline run and repeats
// are cache hits. Beneath it, compile and emulate jobs share their front
// end and execution profile across techniques and budgets through two
// in-memory stage caches. With Config.Store set, successful results
// also write through to a disk-backed content-addressed store, so hits
// survive restarts and replicas sharing one store directory share
// work; and POST /v1/grid expands a benchmark×technique×TBPF matrix
// into cells that reuse the same two cache tiers. Execution goes
// through a bounded worker pool with an admission queue (429 +
// Retry-After when full), per-request deadlines propagated as
// context.Context, Prometheus metrics, and graceful drain (stop
// accepting, finish every in-flight job, flush metrics).
package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"schematic/internal/bench"
	"schematic/internal/cli"
	"schematic/internal/verify"
)

// Options are the request knobs shared by all four job endpoints. Each
// endpoint reads the fields that apply to it; normalize fills documented
// defaults so the content address is stable across equivalent spellings.
type Options struct {
	// Technique selects the checkpoint-placement pass: schematic (the
	// default), ratchet, mementos, rockclimb, alfred, allnvm, or none
	// (front end only).
	Technique string `json:"technique,omitempty"`

	// TBPF derives the capacitor budget EB from the execution profile
	// (EBForTBPF); EB sets it directly in nJ. When both are zero and a
	// technique needs a budget, TBPF defaults to 10000 cycles — the
	// middle of the paper's evaluation range.
	TBPF int64   `json:"tbpf,omitempty"`
	EB   float64 `json:"eb_nj,omitempty"`

	VMSize      int   `json:"vm_size,omitempty"`      // SVM bytes; default 2048
	ProfileRuns int   `json:"profile_runs,omitempty"` // default 50
	Seed        int64 `json:"seed,omitempty"`         // workload input seed; default 1

	// Optimize runs the optimizer before placement (compile/emulate).
	Optimize bool `json:"optimize,omitempty"`

	// Stream (emulate only) switches the response to an NDJSON event
	// stream (internal/obs records) terminated by a result record.
	// Streaming responses bypass the result cache.
	Stream bool `json:"stream,omitempty"`

	// Observe (emulate only) attaches the live-console instrumentation:
	// the run's events are retained in a ring buffer and fanned out to
	// GET /v1/runs/{digest}/events subscribers, and an attribution
	// collector feeds the per-checkpoint-site energy table on
	// GET /v1/runs/{digest}. Observation runs the emulator with a
	// non-nil observer, so it costs throughput; it is off by default.
	Observe bool `json:"observe,omitempty"`

	// Power (emulate only) selects a power-environment spec in the
	// shared internal/cli grammar — e.g. "solar", "rf:seed=7", "duty",
	// or composed "solar+periodic:cycles=40000". Harvested specs model
	// a capacitor charged by the environment's waveform instead of the
	// built-in exhaustion physics. Specs that read local files
	// (trace:, csv:file=) are rejected: requests must be
	// self-contained. The spec is canonicalized (defaults resolved,
	// members ordered) so equivalent spellings share one digest.
	Power string `json:"power,omitempty"`

	// MaxStates / MaxDepth (verify only) bound the model checker's
	// search: distinct persistent states enqueued (default 200000) and
	// chained injections from the cold root (default 64). A truncated
	// search reports verdict "bounded" instead of "verified".
	MaxStates int `json:"max_states,omitempty"`
	MaxDepth  int `json:"max_depth,omitempty"`

	// TimeoutMS bounds this request's job; capped by the server's
	// configured job timeout, which is also the default.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// Request is the JSON body of every POST /v1/* endpoint. Source is
// MiniC; alternatively Bench names one of the bundled MiBench2 programs
// (aes, basicmath, bitcount, crc, dijkstra, fft, randmath, rc4).
type Request struct {
	Name    string  `json:"name,omitempty"`
	Source  string  `json:"source,omitempty"`
	Bench   string  `json:"bench,omitempty"`
	Options Options `json:"options"`
}

// normalize resolves a bundled benchmark, fills defaults, and
// canonicalizes the technique spelling, so equivalent requests share one
// content address.
func (r *Request) normalize(kind string) error {
	if r.Bench != "" {
		if r.Source != "" {
			return fmt.Errorf("source and bench are mutually exclusive")
		}
		b, err := bench.ByName(r.Bench)
		if err != nil {
			return err
		}
		r.Source = b.Source
		if r.Name == "" {
			r.Name = b.Name
		}
		r.Bench = ""
	}
	if strings.TrimSpace(r.Source) == "" {
		return fmt.Errorf("empty source")
	}
	if r.Name == "" {
		r.Name = "prog"
	}
	o := &r.Options
	o.Technique = strings.ToLower(strings.TrimSpace(o.Technique))
	if o.Technique == "" {
		o.Technique = "schematic"
	}
	if !knownTechnique(o.Technique) {
		return fmt.Errorf("unknown technique %q", o.Technique)
	}
	if o.VMSize == 0 {
		o.VMSize = 2048
	}
	if o.VMSize < 0 {
		return fmt.Errorf("vm_size must not be negative")
	}
	if o.ProfileRuns <= 0 {
		o.ProfileRuns = 50
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.TBPF < 0 || o.EB < 0 || o.TimeoutMS < 0 {
		return fmt.Errorf("tbpf, eb_nj and timeout_ms must not be negative")
	}
	if (verify.Options{MaxStates: o.MaxStates, MaxDepth: o.MaxDepth}).Validate() != nil {
		return fmt.Errorf("max_states and max_depth must not be negative")
	}
	if o.Power != "" {
		ps, err := cli.ParsePower(o.Power)
		if err != nil {
			return err
		}
		if ps.RequiresFile() {
			return fmt.Errorf("power spec %q reads local files (trace:/csv:); server requests must be self-contained", o.Power)
		}
		o.Power = ps.String()
	}
	// Options an endpoint does not read must not split its digest:
	// validate, hunt and verify check at the checkers' own 1 MiB SVM
	// without options.optimize, and validate derives its budget from
	// tbpf alone.
	switch kind {
	case "validate":
		o.VMSize, o.EB, o.Optimize = 0, 0, false
	case "hunt", "verify":
		o.VMSize, o.Optimize = 0, false
	}
	if kind != "emulate" {
		o.Stream = false
		o.Observe = false
		o.Power = ""
	}
	if kind != "verify" {
		o.MaxStates = 0
		o.MaxDepth = 0
	}
	// A placement technique needs a budget; emulation of a placed
	// program needs one too. "none" runs on continuous power unless the
	// request asks otherwise.
	if o.Technique != "none" && o.TBPF == 0 && o.EB == 0 {
		o.TBPF = 10_000
	}
	return nil
}

// DigestOf reports the content address a request will be assigned on
// the given endpoint, without submitting it — the digest that keys the
// result cache, the X-Schematic-Digest header, and the run registry
// (GET /v1/runs/{digest}). The request itself is not modified.
func DigestOf(kind string, req Request) (string, error) {
	if err := req.normalize(kind); err != nil {
		return "", err
	}
	return req.digest(kind), nil
}

func knownTechnique(name string) bool {
	return name == "none" || techniqueFor(name) != nil
}

// engineRevision names what the engine computes for a request. It is
// part of every digest, so bump it whenever a change alters a result
// for the same request: entries a -store directory kept from the older
// engine are then orphaned (never served, reclaimed by capacity GC)
// instead of served under an unchanged digest. Revision 1: harvested
// power feeds the emulator's one capacitor, which changes harvested
// MEMENTOS emulations.
const engineRevision = 1

// digest is the request's content address: SHA-256 over the canonical
// JSON encoding of (engine revision, kind, name, source, normalized
// options). Two requests with the same digest are interchangeable,
// which is what makes single-flight caching sound.
func (r *Request) digest(kind string) string {
	canon := struct {
		Revision int     `json:"revision"`
		Kind     string  `json:"kind"`
		Name     string  `json:"name"`
		Source   string  `json:"source"`
		Options  Options `json:"options"`
	}{engineRevision, kind, r.Name, r.Source, r.Options}
	b, _ := json.Marshal(canon) // struct of plain fields: cannot fail
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// EnergyLedger is the nJ breakdown of an emulation (Fig. 6 categories).
type EnergyLedger struct {
	ComputeNJ float64 `json:"compute_nj"`
	SaveNJ    float64 `json:"save_nj"`
	RestoreNJ float64 `json:"restore_nj"`
	ReexecNJ  float64 `json:"reexec_nj"`
	TotalNJ   float64 `json:"total_nj"`
}

// CompileResponse is the body of POST /v1/compile.
type CompileResponse struct {
	Digest      string  `json:"digest"`
	Name        string  `json:"name"`
	Technique   string  `json:"technique"`
	EBnJ        float64 `json:"eb_nj"`
	Optimized   bool    `json:"optimized"`
	Checkpoints int     `json:"checkpoints"`
	IR          string  `json:"ir"`
}

// EmulateResponse is the body of POST /v1/emulate (and the terminal
// "result" record of a streamed run).
type EmulateResponse struct {
	Digest    string `json:"digest"`
	Name      string `json:"name"`
	Technique string `json:"technique"`

	EBnJ      float64 `json:"eb_nj"`
	Power     string  `json:"power,omitempty"` // canonical power-environment spec, if any
	Verdict   string  `json:"verdict"`
	Completed bool    `json:"completed"`
	Output    []int64 `json:"output"`

	Cycles        int64 `json:"cycles"`
	TotalCycles   int64 `json:"total_cycles"`
	Steps         int64 `json:"steps"`
	PowerFailures int   `json:"power_failures"`
	Saves         int   `json:"saves"`
	Restores      int   `json:"restores"`
	Sleeps        int   `json:"sleeps"`
	MaxVMBytes    int   `json:"max_vm_bytes"`

	Energy EnergyLedger `json:"energy"`
}

// ValidateResponse is the body of POST /v1/validate. OK means every
// validated pipeline stage matched the AST reference interpreter.
type ValidateResponse struct {
	Digest  string `json:"digest"`
	Name    string `json:"name"`
	OK      bool   `json:"ok"`
	Skipped string `json:"skipped,omitempty"`
	// On a mismatch: the first offending stage and the two observables.
	Stage  string `json:"stage,omitempty"`
	Want   string `json:"want,omitempty"`
	Got    string `json:"got,omitempty"`
	Detail string `json:"detail,omitempty"`
}

// HuntResponse is the body of POST /v1/hunt. OK means no
// crash-consistency violation was found within the bounds.
type HuntResponse struct {
	Digest    string `json:"digest"`
	Name      string `json:"name"`
	Technique string `json:"technique"`
	OK        bool   `json:"ok"`
	Skipped   string `json:"skipped,omitempty"`
	// On a violation: its classification and the offending schedule.
	Class     string  `json:"class,omitempty"`
	Schedule  string  `json:"schedule,omitempty"`
	Detail    string  `json:"detail,omitempty"`
	FoundBy   string  `json:"found_by,omitempty"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// VerifyResponse is the body of POST /v1/verify. Verdict "verified"
// means the reachable crash-recovery state space was exhausted with no
// violation; "bounded" means the named bound truncated the search first
// (nothing found, nothing proven); "counterexample" carries the shrunk
// offending schedule. OK is true for verified, bounded, and skipped
// cases — it means "no violation found", mirroring POST /v1/hunt.
type VerifyResponse struct {
	Digest    string `json:"digest"`
	Name      string `json:"name"`
	Technique string `json:"technique"`
	OK        bool   `json:"ok"`
	Skipped   string `json:"skipped,omitempty"`

	Verdict      string `json:"verdict,omitempty"`
	States       int    `json:"states,omitempty"`
	Edges        int64  `json:"edges,omitempty"`
	DedupHits    int64  `json:"dedup_hits,omitempty"`
	MaxDepth     int    `json:"max_depth,omitempty"`
	WaitContract bool   `json:"wait_contract,omitempty"`
	Bound        string `json:"bound,omitempty"`

	// On a counterexample: its classification and the offending schedule.
	Class     string  `json:"class,omitempty"`
	Schedule  string  `json:"schedule,omitempty"`
	Detail    string  `json:"detail,omitempty"`
	FoundBy   string  `json:"found_by,omitempty"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// RunSummary is one retained run in GET /v1/runs: an emulation, a
// verification or a grid. Events, EventsRetained, Subscribers and
// DroppedEvents describe an observed emulation's event stream; they are
// zero for every other run: an unobserved emulation (options.observe was
// false), a verification, and a grid, whose stream carries its cells.
type RunSummary struct {
	Digest    string `json:"digest"`
	Name      string `json:"name"`
	Technique string `json:"technique"`
	Kind      string `json:"kind,omitempty"` // "emulate", "verify" or "grid"
	Status    string `json:"status"`         // "running", "done", "error"
	Observed  bool   `json:"observed"`
	Stream    bool   `json:"stream,omitempty"`

	StartedAt string  `json:"started_at"` // RFC 3339, UTC
	ElapsedMS float64 `json:"elapsed_ms"`

	Events         int64 `json:"events"`          // emitted by the emulator
	EventsRetained int64 `json:"events_retained"` // still replayable from the ring
	Subscribers    int   `json:"subscribers"`     // live SSE readers
	DroppedEvents  int64 `json:"dropped_events"`  // lost to full subscriber queues

	Verdict string `json:"verdict,omitempty"` // when done
	Error   string `json:"error,omitempty"`   // when failed
}

// RunsResponse is the body of GET /v1/runs (newest run first).
type RunsResponse struct {
	Runs []RunSummary `json:"runs"`
}

// SiteEnergy is one checkpoint site's attribution ledger inside a
// RunDetail: what the site spent on saves, restores, and the
// re-execution charged to resumes from it. Site -1 is the synthetic
// boot site (cold restarts, boot-time restores).
type SiteEnergy struct {
	Site       int    `json:"site"`
	Where      string `json:"where"` // "func.block" of first observation
	Fires      int64  `json:"fires"`
	Saves      int64  `json:"saves"`
	Restores   int64  `json:"restores"`
	BytesSaved int64  `json:"bytes_saved"`

	SaveNJ    float64 `json:"save_nj"`
	RestoreNJ float64 `json:"restore_nj"`
	ReexecNJ  float64 `json:"reexec_nj"`
	TotalNJ   float64 `json:"total_nj"`
}

// RunDetail is the body of GET /v1/runs/{digest}. For a running
// observed run, the counters and site table are a live mid-run
// snapshot; Result appears once the run finishes. A verify run carries
// its search's latest statistics in Search from its first progress
// report on, the final ones once it finishes.
type RunDetail struct {
	RunSummary

	PowerFailures int64 `json:"power_failures"`
	Sleeps        int64 `json:"sleeps"`
	PoisonReads   int64 `json:"poison_reads"`

	Sites  []SiteEnergy     `json:"sites,omitempty"`
	Result *EmulateResponse `json:"result,omitempty"`
	Grid   *GridResponse    `json:"grid,omitempty"` // kind "grid", once finished
	Search *SearchProgress  `json:"search,omitempty"`
}

// SearchProgress is a model-checking search's progress
// (verify.Progress): distinct states found and explored, the frontier,
// the injection points examined and how many landed in visited states,
// the current depth, and the runs ended at a known full-state key with
// the steps that saved.
type SearchProgress struct {
	States       int   `json:"states"`
	Explored     int   `json:"explored"`
	Frontier     int   `json:"frontier"`
	Edges        int64 `json:"edges"`
	DedupHits    int64 `json:"dedup_hits"`
	Depth        int   `json:"depth"`
	Merged       int   `json:"merged"`
	SkippedSteps int64 `json:"skipped_steps"`
}

// ErrorResponse is the JSON body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}
