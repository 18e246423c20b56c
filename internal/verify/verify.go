// Package verify upgrades crash hunting from sampling to bounded model
// checking: it explores the crash-recovery state graph of a placed
// program exhaustively instead of probing it at sampled points.
//
// A node of the graph is the persistent state that survives a power
// failure — NVM contents, conditional-checkpoint counters, the
// committed output prefix, and the committed snapshot (or cold-start) —
// canonically hashed into a visited set (DiVM-style hash compaction) so
// each distinct resume state is explored once. An edge is "resume from
// the node, run under exhaustion physics, and kill the supply at one
// schedulable injection point" — instruction boundaries and the
// before/mid (torn)/after phases of every checkpoint save. The emulator
// reports a run's injection points a window at a time
// (emulator.PointVisit): a window's Span points leave one persistent
// state, so they are Span edges into one successor, and a run costs one
// hook call per persistent change instead of one per point. A run that
// reaches a full machine state an earlier run of the case already passed
// at a checkpoint commit where runs join (emulator.Hook) stops there,
// and a memo supplies the rest (see suffix). Because an adversarial power schedule is exactly a sequence
// of such injections, and everything between injections is
// deterministic physics, a BFS
// over this graph covers every power-failure interleaving: if every
// reachable node's injection-free run completes with oracle-equal
// output, no schedule can produce a violation, and the verdict is
// Verified. Otherwise the path of injection points leading to the
// offending node replays as one continuous schedule and feeds the
// existing crashtest shrinking + NDJSON repro machinery.
package verify

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"time"

	"schematic/internal/crashtest"
	"schematic/internal/emulator"
)

// Verdict is the outcome of a verification run.
type Verdict string

const (
	// Verified: the reachable state space was exhausted with no
	// violation — every power-failure interleaving of this program,
	// input, and capacitor budget is safe (up to hash-compaction
	// collision odds; see TESTING.md).
	Verified Verdict = "verified"
	// Counterexample: a reachable persistent state misbehaves; the
	// Finding carries the shrunk, replayable injection trace.
	Counterexample Verdict = "counterexample"
	// Bounded: a depth, state, or deadline bound truncated the search
	// before the state space was exhausted; no violation was found in
	// the explored portion, but nothing is verified.
	Bounded Verdict = "bounded"
)

// Options tunes a verification. Zero values select the documented
// defaults; a negative bound is a mistake Validate refuses. The step cap
// and the shrink budget are crashtest's, and fixed.
type Options struct {
	// MaxDepth bounds the number of chained injections (graph depth
	// from the cold root). 0 = 64.
	MaxDepth int
	// MaxStates bounds the distinct persistent states enqueued. 0 =
	// 200_000.
	MaxStates int

	// AssumeAnytime explores wait-style placements too instead of
	// verifying their no-failure contract (see crashtest.Options).
	AssumeAnytime bool

	// Deadline, when non-zero, truncates the search when passed (the
	// report comes back Bounded).
	Deadline time.Time

	// Progress, when non-nil, receives periodic search statistics.
	Progress func(Progress)
	// ProgressEvery is the number of explored states between Progress
	// calls. 0 = 100.
	ProgressEvery int
}

// Validate refuses a negative bound with a crashtest.ConfigError: a
// bound is part of the question a verdict answers, so a wrong one is
// not searched.
func (o Options) Validate() error {
	return cmp.Or(
		crashtest.NotNegative("Options.MaxDepth", int64(o.MaxDepth)),
		crashtest.NotNegative("Options.MaxStates", int64(o.MaxStates)),
		crashtest.NotNegative("Options.ProgressEvery", int64(o.ProgressEvery)),
	)
}

// Progress is a periodic snapshot of the search.
type Progress struct {
	States   int   // distinct persistent states discovered
	Explored int   // states whose outgoing run has been executed
	Frontier int   // states discovered but not yet explored
	Edges    int64 // injection points examined (failure transitions)
	Dedup    int64 // transitions that landed in an already-visited state
	Depth    int   // depth of the state currently being explored
	// Merged counts the runs ended at a known full-state key, and
	// SkippedSteps the steps the memo predicted for them instead of
	// executing (see suffix).
	Merged       int
	SkippedSteps int64
}

// Report is the result of a verification run.
type Report struct {
	Verdict Verdict `json:"verdict"`
	// States is the number of distinct persistent states discovered
	// (including the cold root); Edges the number of injection points
	// examined, each a possible failure transition, counted point by
	// point although the emulator reports them in windows; DedupHits the
	// transitions whose target state had already been visited.
	States    int   `json:"states"`
	Edges     int64 `json:"edges"`
	DedupHits int64 `json:"dedup_hits"`
	// MaxDepth is the deepest injection chain explored.
	MaxDepth int `json:"max_depth"`
	// WaitContract is set when the placement is wait-style and the
	// verifier checked its no-failure contract instead of exploring
	// (see crashtest.Options.AssumeAnytime).
	WaitContract bool `json:"wait_contract,omitempty"`
	// Bound names the bound that truncated a Bounded search.
	Bound   string        `json:"bound,omitempty"`
	Elapsed time.Duration `json:"elapsed"`
	// Finding is the shrunk, replayable counterexample (nil unless
	// Verdict is Counterexample).
	Finding *crashtest.Finding `json:"finding,omitempty"`
}

func (o Options) withDefaults() Options {
	if o.MaxDepth == 0 {
		o.MaxDepth = 64
	}
	if o.MaxStates == 0 {
		o.MaxStates = 200_000
	}
	if o.ProgressEvery == 0 {
		o.ProgressEvery = 100
	}
	return o
}

// node is one frontier entry: a persistent state plus the injection
// path that reached it. The root is the initial state, with no path.
type node struct {
	state *emulator.PersistentState
	hash  emulator.StateHash
	path  []crashtest.PointSpec
	depth int
	// cumSteps/cumSaves are the run ordinals accumulated along the path
	// in a continuous replay: a child discovered at leg-local visit
	// (kind, step s, saves a) is reached by failing at absolute
	// occurrence cumSteps+s (step points) or cumSaves+a (save points).
	// Steps and SaveAttempts are cumulative across power failures, so
	// the absolute ordinals address exactly the intended points when the
	// whole path replays as one TraceSchedule.
	cumSteps int64
	cumSaves int64
}

// maxFailures is emulator.Config's default failure cap, set explicitly
// on every run of a search so that a merge can check that the run's
// remaining budget covers the suffix it skips.
const maxFailures = 10_000_000

// suffix is what a run did from a checkpoint commit to its end: the
// injection points it examined, the steps it executed and the power
// failures it took. The memo keeps, for each full-state key
// (emulator.CommitVisit), the suffix of the first run that passed it and
// hit no bound; every state such a suffix reaches is then visited. Any
// later run that meets the key would repeat that suffix, so it stops
// there: the suffix's points count as edges into visited states, and
// the run completes as the recorded run did — with the oracle's output
// and no unsynced read — unless the step or failure cap would cut it
// short first, in which case it keeps running.
type suffix struct {
	edges    int64
	steps    int64
	failures int
}

// passed is a key a run offered, with the search's edge and dedup
// counts there, and the memo's suffix from there when the key is known.
type passed struct {
	at           emulator.CommitVisit
	edges, dedup int64
	known        *suffix
}

// Run verifies one case. It returns a crashtest.ConfigError for options
// that fail Validate, before any run; a SkipError (via crashtest) for
// cases the verifier cannot judge — the same ineligibility rules as
// Hunt — and ctx.Err() on cancellation.
func Run(ctx context.Context, cs crashtest.Case, opts Options) (*Report, error) {
	return run(ctx, cs, opts, nil)
}

// run is Run with the merge oracle's test seam. With a non-nil checked,
// a run that meets a known key keeps going, and run fails unless what
// the run did from each known key it met equals the memo's prediction:
// the edges, dedup hits, steps, power failures and class. *checked
// counts the predictions held.
func run(ctx context.Context, cs crashtest.Case, opts Options, checked *int64) (*Report, error) {
	start := time.Now()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	if d, ok := ctx.Deadline(); ok && (opts.Deadline.IsZero() || d.Before(opts.Deadline)) {
		opts.Deadline = d
	}
	ctOpts := crashtest.Options{AssumeAnytime: opts.AssumeAnytime}
	b, err := crashtest.Prepare(cs, ctOpts)
	if err != nil {
		return nil, err
	}
	ncs := b.Case()

	// Root baseline: the placement under its own physics, judged by the
	// gate Hunt applies. A wait-style placement that kept its contract has
	// nothing to explore: the hardware rules out failures between its
	// checkpoints, so the guarantee itself is the verification condition.
	base, err := b.Baseline(ctOpts, "verify-root")
	switch {
	case err != nil:
		return nil, err
	case base.Finding != nil:
		return &Report{Verdict: Counterexample, States: 1, Elapsed: time.Since(start), Finding: base.Finding}, nil
	case base.WaitContract:
		return &Report{Verdict: Verified, States: 1, WaitContract: true, Elapsed: time.Since(start)}, nil
	}

	baseCfg := emulator.Config{
		Model:        b.Model(),
		VMSize:       ncs.VMSize,
		Intermittent: true,
		EB:           b.EB(),
	}
	rootCfg := baseCfg
	rootCfg.Inputs = b.Inputs()
	root, err := emulator.InitialState(b.Module(), rootCfg)
	if err != nil {
		return nil, err
	}

	visited := map[emulator.StateHash]struct{}{root.Hash(): {}}
	frontier := []node{{state: root, hash: root.Hash(), depth: 0}}
	memo := map[emulator.StateHash]suffix{}
	var (
		edges, dedup int64
		explored     int
		maxDepth     int
		bound        string
		merged       int
		skipped      int64
	)

	report := func(depth int) {
		if opts.Progress != nil {
			opts.Progress(Progress{
				States:       len(visited),
				Explored:     explored,
				Frontier:     len(frontier),
				Edges:        edges,
				Dedup:        dedup,
				Depth:        depth,
				Merged:       merged,
				SkippedSteps: skipped,
			})
		}
	}

	for len(frontier) > 0 {
		// A mid-search deadline truncates to a Bounded verdict — the
		// explored portion is still a meaningful answer; only outright
		// cancellation aborts with an error.
		if err := ctx.Err(); err != nil {
			if errors.Is(err, context.Canceled) {
				return nil, err
			}
			bound = "deadline"
			break
		}
		if !opts.Deadline.IsZero() && time.Now().After(opts.Deadline) {
			bound = "deadline"
			break
		}
		n := frontier[0]
		frontier[0] = node{} // the explored node's state is garbage from here
		frontier = frontier[1:]
		if n.depth > maxDepth {
			maxDepth = n.depth
		}

		// One resumed run covers ALL outgoing edges of this node: the
		// persistent state only changes at NVM stores, counter bumps, and
		// checkpoint commits, so the emulator hands the run's injection
		// points to the hook in windows of equal state hash, and each
		// window whose hash is new along the run is one successor. The
		// same run's final result classifies the node itself: it is
		// exactly "resume here and never inject again".
		var (
			discovered []node
			keys       []passed
			hitBound   bool
			stop       *passed // the known key the run stopped at
		)
		prev := n.hash
		cfg := baseCfg
		cfg.MaxSteps = base.MaxSteps
		cfg.MaxFailures = maxFailures
		cfg.Resume = n.state
		cfg.Hook = &emulator.Hook{Window: func(v emulator.PointVisit, capture func() *emulator.PersistentState) {
			// Every point of the window is an edge into one state: the
			// first is judged below, the other Span−1 land where it does.
			edges += v.Span
			dedup += v.Span - 1
			if v.Hash == prev {
				// A failure here lands in the state the previous window
				// already led to.
				dedup++
				return
			}
			prev = v.Hash
			if _, ok := visited[v.Hash]; ok {
				dedup++
				return
			}
			if n.depth+1 > opts.MaxDepth {
				bound, hitBound = "max-depth", true
				return
			}
			if len(visited) >= opts.MaxStates {
				bound, hitBound = "max-states", true
				return
			}
			visited[v.Hash] = struct{}{}
			child := node{
				state:    capture(),
				hash:     v.Hash,
				path:     appendSpec(n, v),
				depth:    n.depth + 1,
				cumSteps: n.cumSteps + v.Step,
				cumSaves: n.cumSaves + v.Saves,
			}
			discovered = append(discovered, child)
		}, Commit: func(c emulator.CommitVisit) bool {
			k := passed{at: c, edges: edges, dedup: dedup}
			s, ok := memo[c.Key]
			switch {
			case !ok:
				keys = append(keys, k)
				return false
			case c.Steps+s.steps > base.MaxSteps || c.PowerFailures+s.failures > maxFailures:
				return false
			}
			k.known = &s
			if checked != nil {
				keys = append(keys, k)
				return false
			}
			stop = &k
			return true
		}}
		res, runErr := emulator.Run(b.Module(), cfg)
		if stop != nil && runErr == nil {
			// Every state the suffix reaches is visited: its points are
			// edges and dedup hits both.
			edges += stop.known.edges
			dedup += stop.known.edges
			merged++
			skipped += stop.known.steps
			res = predicted(b, *stop)
		}
		out := b.Classify(res, runErr, base.MaxSteps)
		explored++
		if checked != nil {
			held, err := checkPredictions(b, keys, out, res, edges, dedup, base.MaxSteps)
			*checked += held
			if err != nil {
				return nil, fmt.Errorf("verify: case %s: run at depth %d: %w", ncs.Name, n.depth, err)
			}
		}
		if out.Class != crashtest.ClassNone {
			// This reachable state misbehaves with no further injections:
			// the path that reached it is the counterexample. Replay it as
			// one continuous schedule through the standard confirm+shrink
			// pipeline; the continuous replay's class is authoritative
			// (watchdog state accumulates across legs there).
			confirmSteps := base.MaxSteps * int64(len(n.path)+1)
			f, err := b.Confirm("verify-exhaustive", n.path, crashtest.ClassNone, confirmSteps)
			if err != nil {
				return nil, fmt.Errorf("verify: case %s: state at depth %d is %s but %w",
					ncs.Name, n.depth, out.Class, err)
			}
			report(n.depth)
			return &Report{
				Verdict:   Counterexample,
				States:    len(visited),
				Edges:     edges,
				DedupHits: dedup,
				MaxDepth:  maxDepth,
				Elapsed:   time.Since(start),
				Finding:   f,
			}, nil
		}
		if !hitBound {
			// The run completed with no bound cutting its discoveries
			// short, so every state after each key it passed is visited.
			for _, k := range keys {
				if k.known == nil {
					memo[k.at.Key] = suffix{edges: edges - k.edges, steps: res.Steps - k.at.Steps,
						failures: res.PowerFailures - k.at.PowerFailures}
				}
			}
		}
		frontier = append(frontier, discovered...)
		if explored%opts.ProgressEvery == 0 {
			report(n.depth)
		}
	}

	rep := &Report{
		Verdict:   Verified,
		States:    len(visited),
		Edges:     edges,
		DedupHits: dedup,
		MaxDepth:  maxDepth,
		Bound:     bound,
		Elapsed:   time.Since(start),
	}
	if bound != "" {
		rep.Verdict = Bounded
	}
	report(maxDepth)
	return rep, nil
}

// appendSpec extends the node's injection path with the absolute
// occurrence of the visited point (see node.cumSteps/cumSaves).
func appendSpec(n node, v emulator.PointVisit) []crashtest.PointSpec {
	abs := n.cumSaves + v.Saves
	if v.Kind == emulator.PointStep {
		abs = n.cumSteps + v.Step
	}
	path := make([]crashtest.PointSpec, 0, len(n.path)+1)
	path = append(path, n.path...)
	return append(path, crashtest.PointSpec{Kind: v.Kind.String(), N: abs})
}

// predicted is the Result of a run that meets a known key, as the memo
// predicts it: completed with the oracle's output, the suffix's steps and
// failures added to the run's so far, and no unsynced read after the key.
func predicted(b *crashtest.Built, k passed) *emulator.Result {
	return &emulator.Result{
		Verdict:       emulator.Completed,
		Output:        b.OracleOutput(),
		Steps:         k.at.Steps + k.known.steps,
		PowerFailures: k.at.PowerFailures + k.known.failures,
		UnsyncedReads: k.at.UnsyncedReads,
	}
}

// checkPredictions is the merge oracle: it holds what the run did from
// each known key it met against the memo's prediction, and returns the
// number of predictions held. edges and dedup are the search's counts
// after the run, out and res its outcome.
func checkPredictions(b *crashtest.Built, keys []passed, out crashtest.Outcome, res *emulator.Result, edges, dedup, maxSteps int64) (int64, error) {
	var held int64
	for _, k := range keys {
		s := k.known
		if s == nil {
			continue
		}
		want := b.Classify(predicted(b, k), nil, maxSteps).Class
		got := suffix{edges: edges - k.edges}
		if res != nil {
			got.steps, got.failures = res.Steps-k.at.Steps, res.PowerFailures-k.at.PowerFailures
		}
		if got != *s || dedup-k.dedup != s.edges || out.Class != want {
			return held, fmt.Errorf("merge at key %v mispredicted: ran %+v with %d dedup hits, class %s; memo %+v, class %s",
				k.at.Key, got, dedup-k.dedup, out.Class, *s, want)
		}
		held++
	}
	return held, nil
}
