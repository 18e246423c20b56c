package crashtest

import (
	"fmt"
	"strings"

	"schematic/internal/emulator"
	"schematic/internal/obs"
)

// Class names the kind of crash-consistency violation a run exhibited.
type Class string

const (
	// ClassNone: the run matched the oracle.
	ClassNone Class = ""
	// ClassDivergence: the run completed with output different from the
	// continuous-power oracle — a WAR / idempotence violation.
	ClassDivergence Class = "output-divergence"
	// ClassPoisonRead: the run read VM storage that was never restored.
	ClassPoisonRead Class = "poison-read"
	// ClassForwardProgress: the run was declared Stuck or exhausted its
	// failure budget — the endless re-execution the paper's guarantee
	// rules out.
	ClassForwardProgress Class = "forward-progress"
	// ClassNonTermination: the run exceeded its step bound.
	ClassNonTermination Class = "non-termination"
	// ClassVMOverflow: the resident VM set exceeded SVM during recovery.
	ClassVMOverflow Class = "vm-overflow"
	// ClassLedger: the energy-attribution ledgers failed to reconcile.
	ClassLedger Class = "ledger-mismatch"
	// ClassEmulatorError: the emulator itself errored.
	ClassEmulatorError Class = "emulator-error"
)

// PointSpec is the serialized form of one emulator.FailPoint.
type PointSpec struct {
	Kind string `json:"kind"`
	N    int64  `json:"n"`
}

// ScheduleSpec is the serialized, deterministic power schedule of a
// repro: capacitor exhaustion (physics) plus an explicit failure-point
// trace. Random and stride hunts are normalized into this form using the
// injection points they actually fired, so every repro replays without
// any stateful schedule.
type ScheduleSpec struct {
	Exhaust bool        `json:"exhaust"`
	Points  []PointSpec `json:"points,omitempty"`
}

// Build constructs the runnable schedule. A pure-exhaustion spec returns
// the plain exhaustion schedule (the emulator default).
func (s ScheduleSpec) Build() (emulator.PowerSchedule, error) {
	var fps []emulator.FailPoint
	for _, p := range s.Points {
		k, err := emulator.ParsePointKind(p.Kind)
		if err != nil {
			return nil, err
		}
		fps = append(fps, emulator.FailPoint{Kind: k, N: p.N})
	}
	var parts []emulator.PowerSchedule
	if s.Exhaust {
		parts = append(parts, emulator.Exhaustion())
	}
	if len(fps) > 0 {
		parts = append(parts, emulator.TraceSchedule(fps...))
	}
	return emulator.Schedules(parts...), nil
}

func (s ScheduleSpec) String() string {
	parts := make([]string, 0, len(s.Points)+1)
	if s.Exhaust {
		parts = append(parts, "exhaustion")
	}
	for _, p := range s.Points {
		parts = append(parts, fmt.Sprintf("%s@%d", p.Kind, p.N))
	}
	if len(parts) == 0 {
		return "(none)"
	}
	return strings.Join(parts, "+")
}

// Outcome is one injected run's classification.
type Outcome struct {
	Class  Class
	Detail string
	// Points are the injections that actually fired, as a replayable
	// trace (the normalization of random/stride schedules).
	Points []PointSpec
	Res    *emulator.Result
}

// recorder captures the injection points a run fired, normalizing any
// schedule into a replayable trace. It reads only EvInjection, so it
// opts out of per-instruction events and asks for no attribution.
type recorder struct{ points []PointSpec }

func (r *recorder) Attribution() *emulator.Attribution { return nil }

func (r *recorder) Event(e emulator.Event) {
	if e.Kind == emulator.EvInjection {
		r.points = append(r.points, PointSpec{Kind: e.Point.String(), N: e.Seq})
	}
}

// Classify judges a finished emulator run (or its error) against the
// oracle — runOnce's classification without the ledger reconciliation,
// for callers that executed the run themselves (the model checker's
// resumed explorations).
func (b *Built) Classify(res *emulator.Result, err error, maxSteps int64) Outcome {
	if err != nil {
		return Outcome{Class: ClassEmulatorError, Detail: err.Error()}
	}
	out := Outcome{Res: res}
	out.Class, out.Detail = b.classifyResult(res, maxSteps)
	return out
}

// classifyResult maps a run's verdict and output to a violation class.
func (b *Built) classifyResult(res *emulator.Result, maxSteps int64) (Class, string) {
	switch res.Verdict {
	case emulator.Completed:
		switch {
		case res.UnsyncedReads > 0:
			return ClassPoisonRead, fmt.Sprintf("%d reads of never-restored VM storage", res.UnsyncedReads)
		case !equalOutput(res.Output, b.oracle.Output):
			return ClassDivergence, diffOutput(res.Output, b.oracle.Output)
		}
		return ClassNone, ""
	case emulator.Stuck:
		return ClassForwardProgress, fmt.Sprintf("stuck after %d power failures", res.PowerFailures)
	case emulator.OutOfFailures:
		return ClassForwardProgress, fmt.Sprintf("failure budget exhausted (%d failures)", res.PowerFailures)
	case emulator.OutOfSteps:
		return ClassNonTermination, fmt.Sprintf("exceeded %d steps", maxSteps)
	case emulator.VMOverflow:
		return ClassVMOverflow, fmt.Sprintf("resident VM exceeded %d bytes", b.cs.VMSize)
	default:
		return ClassEmulatorError, fmt.Sprintf("unexpected verdict %v", res.Verdict)
	}
}

// runOnce executes the built case under the given schedule (constructed
// fresh per run — schedules are stateful) and classifies the outcome
// against the oracle.
func (b *Built) runOnce(sched emulator.PowerSchedule, maxSteps int64) Outcome {
	rec := &recorder{}
	col := obs.NewCollector()
	res, err := emulator.Run(b.mod, emulator.Config{
		Model:        b.model,
		VMSize:       b.cs.VMSize,
		Intermittent: true,
		EB:           b.eb,
		Inputs:       b.inputs,
		MaxSteps:     maxSteps,
		Schedule:     sched,
		Observer:     emulator.MultiObserver(col, rec),
	})
	if err != nil {
		return Outcome{Class: ClassEmulatorError, Detail: err.Error(), Points: rec.points}
	}
	out := Outcome{Points: rec.points, Res: res}
	out.Class, out.Detail = b.classifyResult(res, maxSteps)
	if out.Class == ClassNone {
		if err := col.Reconcile(res); err != nil {
			out.Class = ClassLedger
			out.Detail = err.Error()
		}
	}
	return out
}

// runSpec is runOnce for a serialized schedule.
func (b *Built) runSpec(spec ScheduleSpec, maxSteps int64) (Outcome, error) {
	sched, err := spec.Build()
	if err != nil {
		return Outcome{}, err
	}
	return b.runOnce(sched, maxSteps), nil
}

func equalOutput(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// diffOutput renders the first divergence compactly.
func diffOutput(got, want []int64) string {
	if len(got) != len(want) {
		return fmt.Sprintf("output length %d, oracle %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Sprintf("output[%d] = %d, oracle %d", i, got[i], want[i])
		}
	}
	return "outputs differ"
}
