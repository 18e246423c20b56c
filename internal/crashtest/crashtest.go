// Package crashtest hunts crash-consistency violations in checkpoint
// placements with differential fault injection, the validation style of
// DiVM's schedule exploration and ScEpTIC's bitcode simulation: run the
// program once under continuous power as the oracle, then re-execute it
// under adversarial power schedules — failures immediately before, in
// the middle of (torn checkpoint), and immediately after checkpoint
// saves, at sampled instruction boundaries, and at seeded-random points
// — and classify every divergence from the oracle.
//
// Every counterexample is shrunk (first the failure-point list, then,
// for fuzz-generated programs, the program itself) and serialized as a
// deterministic NDJSON repro that `crashhunt -replay` re-executes.
package crashtest

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"schematic/internal/baselines"
	"schematic/internal/bench"
	"schematic/internal/emulator"
	"schematic/internal/energy"
	"schematic/internal/fuzzgen"
	"schematic/internal/ir"
	"schematic/internal/minic"
	"schematic/internal/trace"
)

// Case is one hunted configuration: a program, a technique, and the
// knobs that make the whole pipeline reproducible. The zero values of
// the optional fields select documented defaults, so a serialized case
// stays meaningful as defaults evolve only if normalized first; Hunt
// and Replay normalize internally. A negative TBPF or Sabotage is
// refused with a ConfigError.
type Case struct {
	Name   string `json:"name"`
	Source string `json:"source"`
	// Fuzz, when set, records how Source was generated; replay
	// regenerates from the seed and refuses a mismatching Source.
	Fuzz *fuzzgen.Program `json:"fuzz,omitempty"`

	Technique string `json:"technique"`
	InputSeed int64  `json:"input_seed"`

	// TBPF derives the capacitor budget via the profile (EBForTBPF) when
	// EB is zero; 0 selects 10_000 cycles, the middle of the paper's
	// evaluation range.
	TBPF int64   `json:"tbpf,omitempty"`
	EB   float64 `json:"eb_nj,omitempty"`
	// VMSize is SVM for the transformed run; 0 selects 1 MiB so every
	// technique is supported on every bundled benchmark (the hunt is
	// about crash consistency, not memory-fit feasibility).
	VMSize int `json:"vm_size,omitempty"`
	// ProfileRuns sizes the profiling pass; 0 selects 8 (plenty for EB
	// derivation, cheap enough for per-case pipelines).
	ProfileRuns int `json:"profile_runs,omitempty"`

	// Sabotage, when positive, deletes the Sabotage-th checkpoint (1-based,
	// in deterministic function/block/instruction order) from the
	// transformed module — the "deliberately broken placement" used to
	// prove the hunter detects exposed WAR stores.
	Sabotage int `json:"sabotage,omitempty"`
}

// Options tunes a hunt. Zero values select the defaults documented on
// each field; a negative count is a mistake Validate refuses. The step
// cap, the failures per random or stride schedule and the shrink budget
// are fixed (see TESTING.md).
type Options struct {
	// ExhaustiveStepLimit: when the baseline run has at most this many
	// steps, every instruction boundary is injected individually
	// (exhaustive enumeration); above it, SampledSteps boundaries are
	// sampled evenly. 0 = 1200.
	ExhaustiveStepLimit int64
	// SampledSteps is the number of instruction boundaries injected when
	// sampling. 0 = 24.
	SampledSteps int
	// SampledSaves bounds the save attempts probed with the three
	// save-phase injections (before/mid/after). 0 = 6.
	SampledSaves int
	// RandomSchedules is the number of seeded-random schedules per case.
	// 0 = 4.
	RandomSchedules int

	// AssumeAnytime injects into wait-style placements too. By default the
	// hunter honors each technique's failure contract: wait-style runtimes
	// (every checkpoint CkWait — ROCKCLIMB, SCHEMATIC) guarantee that no
	// power failure can occur between checkpoints (the device sleeps at
	// each checkpoint until the capacitor is full, and segments are placed
	// to fit EB), so mid-segment injection breaks an assumption the
	// hardware enforces, not the placement. For those cases the hunter
	// instead verifies the guarantee itself: the exhaustion baseline must
	// complete, correctly, with zero power failures. AssumeAnytime runs
	// the full adversarial schedule set regardless — useful to demonstrate
	// how wait-style NVM-only placements fail outside their contract.
	AssumeAnytime bool

	// Deadline, when non-zero, stops schedule enumeration once passed;
	// the hunt reports a skip instead of a (possibly incomplete) pass.
	Deadline time.Time
}

const (
	// randomFailures bounds the failures each random or stride schedule
	// induces: below the emulator's stagnation threshold of 8, so
	// injections alone can never fake a Stuck verdict.
	randomFailures = 4
	// shrinkBudget bounds the re-executions shrinking one finding's
	// failure-point list may spend.
	shrinkBudget = 200
)

// stepCap caps every run after a case's baseline at 24× the baseline's
// steps plus slack, so a runaway case cannot stall the hunt.
func stepCap(baselineSteps int64) int64 {
	return 24*baselineSteps + 10_000
}

// ConfigError reports a Case or Options field that fails validation, as
// emulator.ConfigError does for an emulator.Config, and unwraps to the
// same emulator.ErrInvalidConfig. The checkers refuse a caller's mistake
// before any run instead of blaming it on the placement under test.
type ConfigError struct {
	Field  string // a field qualified by its struct, as "Options.MaxStates", or a flag
	Reason string
}

func (e *ConfigError) Error() string { return fmt.Sprintf("invalid %s: %s", e.Field, e.Reason) }

func (e *ConfigError) Unwrap() error { return emulator.ErrInvalidConfig }

// NotNegative returns a ConfigError naming field when v is negative.
func NotNegative(field string, v int64) error {
	if v < 0 {
		return &ConfigError{Field: field, Reason: fmt.Sprintf("must not be negative, got %d", v)}
	}
	return nil
}

// Validate refuses a negative count.
func (o Options) Validate() error {
	return cmp.Or(
		NotNegative("Options.ExhaustiveStepLimit", o.ExhaustiveStepLimit),
		NotNegative("Options.SampledSteps", int64(o.SampledSteps)),
		NotNegative("Options.SampledSaves", int64(o.SampledSaves)),
		NotNegative("Options.RandomSchedules", int64(o.RandomSchedules)),
	)
}

func (o Options) withDefaults() Options {
	if o.ExhaustiveStepLimit == 0 {
		o.ExhaustiveStepLimit = 1200
	}
	if o.SampledSteps == 0 {
		o.SampledSteps = 24
	}
	if o.SampledSaves == 0 {
		o.SampledSaves = 6
	}
	if o.RandomSchedules == 0 {
		o.RandomSchedules = 4
	}
	return o
}

func (cs Case) normalized() Case {
	if cs.TBPF == 0 {
		cs.TBPF = 10_000
	}
	if cs.VMSize == 0 {
		cs.VMSize = 1 << 20
	}
	if cs.ProfileRuns == 0 {
		cs.ProfileRuns = 8
	}
	return cs
}

// SkipError marks a case the hunter cannot meaningfully inject into —
// the placement already fails to complete under plain exhaustion (the
// Table III ✗ configurations), or the deadline expired mid-hunt.
type SkipError struct{ Reason string }

func (e *SkipError) Error() string { return "crashtest: case skipped: " + e.Reason }

// WaitOnly reports whether every checkpoint in the module is wait-style
// (CkWait): the placement's failure contract is then "failures only at
// checkpoints", enforced at run time by sleeping until the capacitor is
// full. Modules with no checkpoints are not wait-only.
func WaitOnly(m *ir.Module) bool {
	n := 0
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if ck, ok := in.(*ir.Checkpoint); ok {
					if ck.Kind != ir.CkWait {
						return false
					}
					n++
				}
			}
		}
	}
	return n > 0
}

// CountCheckpoints returns the number of checkpoint instructions in the
// module, in the deterministic order Sabotage ordinals address.
func CountCheckpoints(m *ir.Module) int {
	n := 0
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if _, ok := in.(*ir.Checkpoint); ok {
					n++
				}
			}
		}
	}
	return n
}

// removeNthCheckpoint deletes the n-th (1-based) checkpoint instruction
// in deterministic function/block/instruction order.
func removeNthCheckpoint(m *ir.Module, n int) error {
	seen := 0
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for i, in := range b.Instrs {
				if _, ok := in.(*ir.Checkpoint); !ok {
					continue
				}
				seen++
				if seen == n {
					b.Instrs = append(b.Instrs[:i], b.Instrs[i+1:]...)
					return nil
				}
			}
		}
	}
	return fmt.Errorf("crashtest: sabotage ordinal %d out of range (module has %d checkpoints)", n, seen)
}

// Built is a fully prepared case: the transformed (and possibly
// sabotaged) module, its workload, the continuous-power oracle, and the
// derived capacitor budget. Prepare constructs one; the hunt and the
// model checker in internal/verify both run against it.
type Built struct {
	cs     Case // normalized
	model  *energy.Model
	mod    *ir.Module
	inputs map[string][]int64
	oracle *emulator.Result
	eb     float64
}

// Module is the transformed (and possibly sabotaged) module under test.
func (b *Built) Module() *ir.Module { return b.mod }

// Model is the energy model: the MSP430FR5969's.
func (b *Built) Model() *energy.Model { return b.model }

// Inputs is the case's deterministic workload (do not mutate).
func (b *Built) Inputs() map[string][]int64 { return b.inputs }

// EB is the derived capacitor budget in nJ.
func (b *Built) EB() float64 { return b.eb }

// OracleOutput is the continuous-power oracle's output (do not mutate).
func (b *Built) OracleOutput() []int64 { return b.oracle.Output }

// Case returns the normalized case.
func (b *Built) Case() Case { return b.cs }

// Prepare validates opts, then runs the case pipeline: regenerate/verify
// the source, compile, oracle run, profile, transform, sabotage.
func Prepare(cs Case, opts Options) (*Built, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	return build(cs)
}

func build(cs Case) (*Built, error) {
	cs = cs.normalized()
	// A negative TBPF or Sabotage is a mistake, not a smaller budget or
	// an intact placement.
	if err := cmp.Or(NotNegative("Case.TBPF", cs.TBPF), NotNegative("Case.Sabotage", int64(cs.Sabotage))); err != nil {
		return nil, fmt.Errorf("crashtest: case %s: %w", cs.Name, err)
	}
	model := energy.MSP430FR5969()
	if cs.Fuzz != nil {
		src, err := cs.Fuzz.CaseSource(cs.Source)
		if err != nil {
			return nil, fmt.Errorf("crashtest: case %s: %w", cs.Name, err)
		}
		cs.Source = src
	}
	if cs.Source == "" {
		return nil, fmt.Errorf("crashtest: case %s: no source", cs.Name)
	}
	m, err := minic.Compile(cs.Name, cs.Source)
	if err != nil {
		return nil, fmt.Errorf("crashtest: case %s: %w", cs.Name, err)
	}
	inputs := trace.RandomInputs(m, rand.New(rand.NewSource(cs.InputSeed)))
	oracle, err := emulator.Run(m, emulator.Config{Model: model, Inputs: inputs})
	if err != nil {
		return nil, fmt.Errorf("crashtest: case %s: oracle: %w", cs.Name, err)
	}
	if oracle.Verdict != emulator.Completed {
		return nil, fmt.Errorf("crashtest: case %s: oracle run %v (must complete on continuous power)", cs.Name, oracle.Verdict)
	}
	prof, err := trace.Collect(m, trace.Options{Runs: cs.ProfileRuns, Seed: cs.InputSeed, Model: model})
	if err != nil {
		return nil, fmt.Errorf("crashtest: case %s: profile: %w", cs.Name, err)
	}
	eb := cs.EB
	if eb == 0 {
		eb = prof.EBForTBPF(cs.TBPF)
	}
	// The hunt replays this configuration hundreds of times under
	// varying schedules; validate it once here so a bad case surfaces as
	// a build error instead of a wall of emulator-error outcomes.
	if err := (emulator.Config{
		Model: model, VMSize: cs.VMSize, Intermittent: true, EB: eb,
	}).Validate(); err != nil {
		return nil, fmt.Errorf("crashtest: case %s: %w", cs.Name, err)
	}
	tech, err := bench.TechniqueByName(cs.Technique)
	if err != nil {
		return nil, fmt.Errorf("crashtest: %w", err)
	}
	clone := ir.Clone(m)
	if !tech.SupportsVM(clone, cs.VMSize) {
		return nil, &SkipError{Reason: fmt.Sprintf("%s does not support %s at SVM=%d", cs.Technique, cs.Name, cs.VMSize)}
	}
	if err := tech.Apply(clone, baselines.Params{
		Model:   model,
		Budget:  eb,
		VMSize:  cs.VMSize,
		Profile: prof,
	}); err != nil {
		return nil, fmt.Errorf("crashtest: case %s: apply %s: %w", cs.Name, cs.Technique, err)
	}
	if cs.Sabotage > 0 {
		if err := removeNthCheckpoint(clone, cs.Sabotage); err != nil {
			return nil, err
		}
	}
	return &Built{cs: cs, model: model, mod: clone, inputs: inputs, oracle: oracle, eb: eb}, nil
}

// IsSkip reports whether err marks a skipped (rather than failed) case.
func IsSkip(err error) bool {
	var se *SkipError
	return errors.As(err, &se)
}
