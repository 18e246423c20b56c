// Package transval is the translation-validation layer of the toolchain:
// it checks, program by program, that every stage of the compilation
// pipeline preserves observable behaviour.
//
// The repository has two independent executable semantics for MiniC. The
// reference oracle is the AST interpreter (minic.Interpret), which walks
// the typed syntax tree directly and shares only ir.EvalOp with the rest
// of the stack. The second is the compilation path: lowering to IR, the
// optimizer's rewrite passes, a checkpoint-placement technique, and the
// IR emulator under continuous power. Validate runs a program through
// both and demands identical observables (the print stream, or an
// identical runtime trap) after *every individual stage*:
//
//	AST interpreter  ⟂  lowered IR  ⟂  after each opt pass  ⟂  after placement
//
// Because each stage is checked eagerly, a divergence is bisected to the
// first offending pass by construction. Counterexamples with fuzz
// provenance are shrunk by regenerating the program from its seed under
// tightened generator options (the crashtest approach), and serialized as
// deterministic NDJSON repros that Replay re-executes.
//
// In the oracle hierarchy, transval sits below crashtest: transval proves
// the pipeline correct under continuous power; crashtest then hunts
// crash-consistency bugs in the placements under adversarial power
// schedules. A transval mismatch invalidates every downstream result, so
// it runs first (schematicc -validate, cmd/transval, make ci).
package transval

import (
	"errors"
	"fmt"
	"math/rand"

	"schematic/internal/baselines"
	"schematic/internal/bench"
	"schematic/internal/cfg"
	"schematic/internal/emulator"
	"schematic/internal/energy"
	"schematic/internal/fuzzgen"
	"schematic/internal/ir"
	"schematic/internal/minic"
	"schematic/internal/opt"
	"schematic/internal/trace"
)

// Case is one program to validate, with the knobs that make the whole
// pipeline reproducible.
type Case struct {
	Name   string `json:"name"`
	Source string `json:"source"`
	// Fuzz, when set, records how Source was generated; replay
	// regenerates from the seed and refuses a mismatching Source.
	Fuzz      *fuzzgen.Program `json:"fuzz,omitempty"`
	InputSeed int64            `json:"input_seed"`
}

// Finding is one confirmed, shrunk, replayable miscompile: the first
// pipeline stage whose observable behaviour diverges from the AST
// reference interpreter.
type Finding struct {
	Case   Case   `json:"case"`
	Stage  string `json:"stage"` // "lower", "opt:<pass>", or "place:<technique>"
	Detail string `json:"detail"`
	Want   string `json:"want"` // oracle observable
	Got    string `json:"got"`  // offending stage's observable
}

// Options tunes validation. Zero values select the defaults documented on
// each field.
type Options struct {
	Model *energy.Model // nil = MSP430FR5969

	// MaxSteps bounds the reference runs (interpreter nodes and emulator
	// instructions; 0 = 30M). Stages after the reference get 4× the
	// reference step count plus slack, so a pass that destroys
	// termination is reported instead of spinning.
	MaxSteps int64

	// TBPF derives the placement budget via the profile (0 = 10_000).
	// VMSize is SVM for transformed runs (0 = 1 MiB, so every technique
	// supports every program — validation is about semantics, not fit).
	// ProfileRuns sizes the profiling pass (0 = 8).
	TBPF        int64
	VMSize      int
	ProfileRuns int

	// Techniques are the placement stages to validate, by display name
	// (nil = all five of the evaluation).
	Techniques []string

	// SkipPlacement validates only lowering and the optimizer.
	SkipPlacement bool

	// NoShrink skips counterexample minimization; ShrinkBudget bounds the
	// re-validations shrinking may spend (0 = 24).
	NoShrink     bool
	ShrinkBudget int

	// Coverage, when non-nil, accumulates what each validated program
	// exercised (opcodes, CFG shape, rewrite-rule firings).
	Coverage *Coverage
}

func (o Options) withDefaults() Options {
	if o.Model == nil {
		o.Model = energy.MSP430FR5969()
	}
	if o.MaxSteps == 0 {
		o.MaxSteps = 30_000_000
	}
	if o.TBPF == 0 {
		o.TBPF = 10_000
	}
	if o.VMSize == 0 {
		o.VMSize = 1 << 20
	}
	if o.ProfileRuns == 0 {
		o.ProfileRuns = 8
	}
	if o.ShrinkBudget == 0 {
		o.ShrinkBudget = 24
	}
	if o.Techniques == nil {
		for _, t := range bench.Techniques() {
			o.Techniques = append(o.Techniques, t.Name())
		}
	}
	return o
}

// SkipError marks a case validation cannot classify: the program does not
// terminate within the step budget under either semantics, or a
// technique declines it. Skips are not findings.
type SkipError struct{ Reason string }

func (e *SkipError) Error() string { return "transval: case skipped: " + e.Reason }

// observable is what a run exposes to comparison: a runtime trap, an
// abnormal verdict, or the completed output stream. Trap messages differ
// between the interpreter and the emulator, so traps compare equal by
// kind only.
type observable struct {
	trapped bool
	verdict string // non-empty for abnormal stage verdicts (out-of-steps, vm-overflow)
	detail  string
	output  []int64
}

func (o observable) String() string {
	if o.trapped {
		return fmt.Sprintf("trap (%s)", o.detail)
	}
	if o.verdict != "" {
		return fmt.Sprintf("verdict %s", o.verdict)
	}
	return fmt.Sprintf("output %v", o.output)
}

func (o observable) equal(other observable) bool {
	if o.trapped != other.trapped || o.verdict != other.verdict {
		return false
	}
	if o.trapped {
		return true
	}
	if len(o.output) != len(other.output) {
		return false
	}
	for i := range o.output {
		if o.output[i] != other.output[i] {
			return false
		}
	}
	return true
}

// Validate runs the case through every pipeline stage and returns the
// first divergence from the AST reference interpreter (nil when the whole
// pipeline validates). Errors marked with SkipError denote ineligible
// cases, anything else a broken case (bad source, mismatched fuzz seed).
func Validate(cs Case, opts Options) (*Finding, error) {
	opts = opts.withDefaults()
	f, err := validate(cs, opts)
	if err != nil || f == nil {
		return f, err
	}
	if !opts.NoShrink {
		f = shrink(f, opts)
	}
	return f, nil
}

func validate(cs Case, opts Options) (*Finding, error) {
	cs, file, m, err := frontend(cs)
	if err != nil {
		return nil, err
	}
	for _, fn := range m.Funcs {
		if err := cfg.CheckReducible(fn); err != nil {
			return nil, fmt.Errorf("transval: case %s: %w", cs.Name, err)
		}
	}
	inputs := trace.RandomInputs(m, rand.New(rand.NewSource(cs.InputSeed)))

	// Reference semantics: the AST interpreter.
	ref, err := interpObservable(file, inputs, opts.MaxSteps)
	if err != nil {
		return nil, err
	}
	if opts.Coverage != nil {
		opts.Coverage.AddModule(m)
		opts.Coverage.Programs++
	}

	finding := func(stage string, got observable) *Finding {
		return &Finding{
			Case:   cs,
			Stage:  stage,
			Detail: fmt.Sprintf("%s diverges from the AST interpreter", stage),
			Want:   ref.String(),
			Got:    got.String(),
		}
	}

	// Stage 1: lowering. The emulator on the freshly lowered module must
	// agree with the interpreter.
	lowered, refSteps, err := runStage(m, inputs, opts, 0, opts.MaxSteps)
	if err != nil {
		return nil, err
	}
	if !ref.equal(lowered) {
		return finding("lower", lowered), nil
	}
	// Later stages may legitimately execute more instructions (hoisted
	// loads, checkpoint work); 4× the lowered run plus slack separates
	// that from genuine non-termination.
	stageMax := opts.MaxSteps
	if !ref.trapped {
		stageMax = 4*refSteps + 100_000
	}

	// Stage 2: the optimizer, one pass application at a time. Checking
	// eagerly after every application bisects a divergence to the first
	// offending pass by construction.
	work := ir.Clone(m)
	st := &opt.Stats{}
	passes := opt.Passes()
	for round := 0; round < 32; round++ {
		any := false
		for _, p := range passes {
			if !p.Run(work, st) {
				continue
			}
			any = true
			if err := ir.Verify(work); err != nil {
				return &Finding{
					Case:   cs,
					Stage:  "opt:" + p.Name,
					Detail: fmt.Sprintf("pass broke IR structural invariants: %v", err),
					Want:   ref.String(),
					Got:    "invalid IR",
				}, nil
			}
			got, _, err := runStage(work, inputs, opts, 0, stageMax)
			if err != nil {
				return nil, err
			}
			if !ref.equal(got) {
				return finding("opt:"+p.Name, got), nil
			}
		}
		if !any {
			break
		}
	}
	if opts.Coverage != nil {
		opts.Coverage.AddStats(st)
	}

	// Stage 3: checkpoint placement, one technique at a time, run under
	// continuous power (checkpoints still execute their save/restore
	// work, so a placement that corrupts state is visible here even
	// before crashtest injects failures). Trapping programs stop here:
	// profiling them is impossible.
	if opts.SkipPlacement || ref.trapped {
		return nil, nil
	}
	prof, err := trace.Collect(work, trace.Options{Runs: opts.ProfileRuns, Seed: cs.InputSeed, Model: opts.Model})
	if err != nil {
		// Other profiling inputs may trap a program our fixed input does
		// not; placement cannot be validated for it, lowering and the
		// optimizer already were.
		return nil, nil
	}
	eb := prof.EBForTBPF(opts.TBPF)
	for _, name := range opts.Techniques {
		tech, err := bench.TechniqueByName(name)
		if err != nil {
			return nil, fmt.Errorf("transval: %w", err)
		}
		placed := ir.Clone(work)
		if !tech.SupportsVM(placed, opts.VMSize) {
			continue
		}
		if err := tech.Apply(placed, baselines.Params{
			Model: opts.Model, Budget: eb, VMSize: opts.VMSize, Profile: prof,
		}); err != nil {
			// A technique may find no feasible placement for this program
			// and budget; that is a declined case, not a miscompile.
			continue
		}
		got, _, err := runStage(placed, inputs, opts, opts.VMSize, stageMax)
		if err != nil {
			return nil, err
		}
		if !ref.equal(got) {
			return finding("place:"+name, got), nil
		}
	}
	return nil, nil
}

// frontend normalizes the case (regenerating fuzz sources and verifying
// provenance) and runs the MiniC front end, returning both the checked
// AST (for the interpreter) and the lowered, verified module.
func frontend(cs Case) (Case, *minic.File, *ir.Module, error) {
	if cs.Fuzz != nil {
		src, err := cs.Fuzz.CaseSource(cs.Source)
		if err != nil {
			return cs, nil, nil, fmt.Errorf("transval: case %s: %w", cs.Name, err)
		}
		cs.Source = src
	}
	if cs.Source == "" {
		return cs, nil, nil, fmt.Errorf("transval: case %s: no source", cs.Name)
	}
	file, err := minic.ParseFile(cs.Name, cs.Source)
	if err != nil {
		return cs, nil, nil, fmt.Errorf("transval: case %s: %w", cs.Name, err)
	}
	if err := minic.Check(file); err != nil {
		return cs, nil, nil, fmt.Errorf("transval: case %s: %w", cs.Name, err)
	}
	m, err := minic.Lower(file)
	if err != nil {
		return cs, nil, nil, fmt.Errorf("transval: case %s: %w", cs.Name, err)
	}
	if err := ir.Verify(m); err != nil {
		return cs, nil, nil, fmt.Errorf("transval: case %s: lowering produced invalid IR: %w", cs.Name, err)
	}
	return cs, file, m, nil
}

// interpObservable runs the reference interpreter and classifies its
// outcome: output, trap, or (as a skip) budget exhaustion.
func interpObservable(file *minic.File, inputs map[string][]int64, maxSteps int64) (observable, error) {
	res, err := minic.Interpret(file, inputs, maxSteps)
	if err == minic.ErrInterpSteps {
		return observable{}, &SkipError{Reason: "reference interpreter exceeded its step budget (non-terminating?)"}
	}
	if err != nil {
		return observable{trapped: true, detail: err.Error()}, nil
	}
	return observable{output: res.Output}, nil
}

// runStage executes a module stage under the continuous-power emulator
// and classifies its observable. Verdicts other than completion become a
// trap-style observable with the verdict named, except an out-of-steps
// reference run, which is a skip.
func runStage(m *ir.Module, inputs map[string][]int64, opts Options, vmSize int, maxSteps int64) (observable, int64, error) {
	res, err := emulator.Run(m, emulator.Config{
		Model:    opts.Model,
		Inputs:   inputs,
		VMSize:   vmSize,
		MaxSteps: maxSteps,
	})
	if err != nil {
		// A config rejection is a harness bug, not a program trap —
		// folding it into the trap observable would let a misconfigured
		// validation run masquerade as (or mask) a miscompile.
		if errors.Is(err, emulator.ErrInvalidConfig) {
			return observable{}, 0, fmt.Errorf("transval: stage emulator config: %w", err)
		}
		return observable{trapped: true, detail: err.Error()}, 0, nil
	}
	switch res.Verdict {
	case emulator.Completed:
		return observable{output: res.Output}, res.Steps, nil
	case emulator.OutOfSteps:
		if maxSteps >= opts.MaxSteps {
			// The reference bound itself ran out: non-termination, skip.
			return observable{}, 0, &SkipError{Reason: "emulator exceeded the reference step budget (non-terminating?)"}
		}
		return observable{verdict: "out-of-steps (stage exceeds 4x the reference run)"}, res.Steps, nil
	default:
		// Continuous power cannot get stuck; VM overflow or any other
		// verdict is an observable defect of the stage.
		return observable{verdict: res.Verdict.String()}, res.Steps, nil
	}
}

// shrink minimizes a fuzz-generated counterexample by regenerating the
// program from its seed under progressively tighter generator options,
// keeping any smaller program that still diverges at the same stage.
func shrink(f *Finding, opts Options) *Finding {
	if f.Case.Fuzz == nil {
		return f
	}
	quick := opts
	quick.NoShrink = true
	quick.Coverage = nil
	budget := opts.ShrinkBudget
	best := f
	for pass := 0; pass < 8; pass++ {
		improved := false
		for _, next := range best.Case.Fuzz.Options.Reductions() {
			if budget <= 0 {
				return best
			}
			prog := fuzzgen.FromSeed(best.Case.Fuzz.Seed, next)
			if len(prog.Source) >= len(best.Case.Source) {
				continue
			}
			budget--
			cs := best.Case
			cs.Fuzz = &prog
			cs.Source = prog.Source
			got, err := validate(cs, quick)
			if err != nil || got == nil || got.Stage != best.Stage {
				continue
			}
			best = got
			improved = true
			break
		}
		if !improved {
			break
		}
	}
	return best
}

// ProbeCases are small directed programs covering constructs the fuzz
// generator never emits — today only unary minus (OpNeg) — so the opcode
// accounting can reach the full universe instead of stopping at the
// generator's blind spots.
func ProbeCases(inputSeed int64) []Case {
	return []Case{{
		Name: "probe-unary",
		Source: `input int v[2];

func void main() {
	int x;
	x = v[0];
	print(-x);
	print(~x);
	print(!x);
	print(-(v[1] % 5));
}
`,
		InputSeed: inputSeed,
	}}
}

// FuzzCases derives a reproducible stream of fuzz-generated validation
// cases from a base seed. Every third program carries the
// placement-adversarial shapes (deep WAR chains, tiny hot loops).
func FuzzCases(baseSeed int64, n int, inputSeed int64) []Case {
	var out []Case
	for i, prog := range fuzzgen.MixedCorpus(baseSeed, n) {
		prog := prog
		out = append(out, Case{
			Name:      fmt.Sprintf("fuzz-%d", i),
			Source:    prog.Source,
			Fuzz:      &prog,
			InputSeed: inputSeed + int64(i),
		})
	}
	return out
}
