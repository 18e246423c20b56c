package server

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"schematic/internal/baselines"
	"schematic/internal/bench"
	"schematic/internal/cli"
	"schematic/internal/crashtest"
	"schematic/internal/emulator"
	"schematic/internal/energy"
	"schematic/internal/ir"
	"schematic/internal/minic"
	"schematic/internal/opt"
	"schematic/internal/trace"
	"schematic/internal/transval"
	"schematic/internal/verify"
)

// progError marks faults in the submitted program or options (as
// opposed to server trouble); the handler maps it to 422.
type progError struct{ err error }

func (e *progError) Error() string { return e.err.Error() }
func (e *progError) Unwrap() error { return e.err }

func progErrorf(format string, args ...any) error {
	return &progError{fmt.Errorf(format, args...)}
}

// techniqueFor resolves a normalized technique name to its placement
// pass; "none" (and any unknown name) resolves to nil (front end only).
func techniqueFor(name string) baselines.Technique {
	t, _ := bench.TechniqueByName(name)
	return t
}

// prepared is the shared front half of compile and emulate: the
// (optionally optimized, technique-transformed) module plus the derived
// capacitor budget.
type prepared struct {
	m  *ir.Module
	eb float64
}

// stageCap bounds each stage cache. An entry holds one module (the
// largest bundled program's is 35 KB) or one profile (at most 108 KB).
const stageCap = 32

// frontKey addresses the front stage: the request restricted to the
// fields compile and optimize read.
func frontKey(req *Request) string {
	k := Request{Name: req.Name, Source: req.Source}
	k.Options.Optimize = req.Options.Optimize
	return k.digest("front")
}

// profileKey addresses the profile stage: the front fields plus the
// ones profiling reads.
func profileKey(req *Request) string {
	o := req.Options
	k := Request{Name: req.Name, Source: req.Source}
	k.Options = Options{Optimize: o.Optimize, ProfileRuns: o.ProfileRuns, Seed: o.Seed}
	return k.digest("profile")
}

// compileFront is the front stage: compile, then optimize when asked.
// The module it returns is shared and must not be mutated.
func compileFront(req *Request) (*ir.Module, error) {
	m, err := minic.Compile(req.Name, req.Source)
	if err != nil {
		return nil, &progError{err}
	}
	if req.Options.Optimize {
		if _, err := opt.Optimize(m); err != nil {
			return nil, &progError{err}
		}
	}
	return m, nil
}

// prepare compiles, optimizes, profiles, and applies the placement
// technique, checking ctx between the expensive phases. The front end
// and the profile read neither the technique nor the budget, so they
// come from the server's stage caches, shared by every technique and
// TBPF of one program; the technique is applied to a clone. A stage
// fails only on the program, so its errors are cached too.
func (s *Server) prepare(ctx context.Context, req *Request) (*prepared, error) {
	o := req.Options
	m, err := s.front.Do(ctx, frontKey(req), func() (*ir.Module, error) { return compileFront(req) })
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	tech := techniqueFor(o.Technique)
	if tech == nil {
		return &prepared{m: m, eb: o.EB}, nil
	}
	if !tech.SupportsVM(m, o.VMSize) {
		return nil, progErrorf("technique %s does not support vm_size %d for this program", tech.Name(), o.VMSize)
	}
	prof, err := s.profile.Do(ctx, profileKey(req), func() (*trace.Profile, error) {
		prof, err := trace.Collect(m, trace.Options{Runs: o.ProfileRuns, Seed: o.Seed, Model: energy.MSP430FR5969()})
		if err != nil {
			return nil, &progError{err}
		}
		return prof, nil
	})
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	eb := o.EB
	if eb == 0 {
		eb = prof.EBForTBPF(o.TBPF)
	}
	m = ir.Clone(m)
	if err := tech.Apply(m, baselines.Params{
		Model:   energy.MSP430FR5969(),
		Budget:  eb,
		VMSize:  o.VMSize,
		Profile: prof,
	}); err != nil {
		return nil, &progError{err}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return &prepared{m: m, eb: eb}, nil
}

func (s *Server) runCompile(ctx context.Context, req *Request, digest string) (*CompileResponse, error) {
	p, err := s.prepare(ctx, req)
	if err != nil {
		return nil, err
	}
	return &CompileResponse{
		Digest:      digest,
		Name:        req.Name,
		Technique:   req.Options.Technique,
		EBnJ:        p.eb,
		Optimized:   req.Options.Optimize,
		Checkpoints: crashtest.CountCheckpoints(p.m),
		IR:          p.m.String(),
	}, nil
}

// runEmulate prepares and executes the program on the intermittent
// emulator. A non-nil observer receives the event stream (streaming
// responses); the emulator itself is not interruptible mid-run, so the
// job deadline is enforced between phases and by the step bound.
func (s *Server) runEmulate(ctx context.Context, req *Request, digest string, observer emulator.Observer) (*EmulateResponse, error) {
	o := req.Options
	// Reject an unrunnable emulator configuration before the expensive
	// compile/profile/placement phases — and before a streaming observer
	// sees any events. EB may still be derived from the profile, so the
	// final config is validated again (cheaply) by Run itself.
	if err := (emulator.Config{
		Model: energy.MSP430FR5969(), VMSize: o.VMSize, EB: o.EB,
	}).Validate(); err != nil {
		return nil, &progError{err}
	}
	p, err := s.prepare(ctx, req)
	if err != nil {
		return nil, err
	}
	var sched emulator.PowerSchedule
	if o.Power != "" {
		spec, err := cli.ParsePower(o.Power)
		if err != nil {
			return nil, &progError{err}
		}
		if p.eb <= 0 {
			return nil, progErrorf("power %q needs an energy-constrained run: set tbpf or eb_nj (technique %q runs on continuous power)", o.Power, o.Technique)
		}
		if sched, err = spec.Build(p.eb); err != nil {
			return nil, &progError{err}
		}
	}
	inputs := trace.RandomInputs(p.m, rand.New(rand.NewSource(o.Seed)))
	res, err := emulator.Run(p.m, emulator.Config{
		Model:        energy.MSP430FR5969(),
		VMSize:       o.VMSize,
		Intermittent: p.eb > 0,
		EB:           p.eb,
		Inputs:       inputs,
		Schedule:     sched,
		Observer:     observer,
	})
	if err != nil {
		return nil, &progError{err}
	}
	return &EmulateResponse{
		Digest:        digest,
		Name:          req.Name,
		Technique:     o.Technique,
		EBnJ:          p.eb,
		Power:         o.Power,
		Verdict:       res.Verdict.String(),
		Completed:     res.Verdict == emulator.Completed,
		Output:        res.Output,
		Cycles:        res.Cycles,
		TotalCycles:   res.TotalCycles,
		Steps:         res.Steps,
		PowerFailures: res.PowerFailures,
		Saves:         res.Saves,
		Restores:      res.Restores,
		Sleeps:        res.Sleeps,
		MaxVMBytes:    res.MaxVMBytes,
		Energy: EnergyLedger{
			ComputeNJ: res.Energy.Computation,
			SaveNJ:    res.Energy.Save,
			RestoreNJ: res.Energy.Restore,
			ReexecNJ:  res.Energy.Reexecution,
			TotalNJ:   res.Energy.Total(),
		},
	}, nil
}

// runValidate checks the request's program through the translation
// validator. Technique "none" validates lowering and the optimizer only;
// any other technique validates that placement stage as well.
func runValidate(ctx context.Context, req *Request, digest string) (*ValidateResponse, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	o := req.Options
	opts := transval.Options{
		TBPF:        o.TBPF,
		ProfileRuns: o.ProfileRuns,
	}
	if tech := techniqueFor(o.Technique); tech != nil {
		opts.Techniques = []string{tech.Name()}
	} else {
		opts.SkipPlacement = true
	}
	f, err := transval.Validate(transval.Case{
		Name:      req.Name,
		Source:    req.Source,
		InputSeed: o.Seed,
	}, opts)
	resp := &ValidateResponse{Digest: digest, Name: req.Name}
	var skip *transval.SkipError
	switch {
	case errors.As(err, &skip):
		resp.OK = true
		resp.Skipped = skip.Reason
	case err != nil:
		return nil, &progError{err}
	case f != nil:
		resp.Stage = f.Stage
		resp.Want = f.Want
		resp.Got = f.Got
		resp.Detail = f.Detail
	default:
		resp.OK = true
	}
	return resp, nil
}

// runHunt runs the crash-consistency hunter on the request's program
// under its technique. The context carries the job deadline; Hunt folds
// it into its wall-clock budget.
func runHunt(ctx context.Context, req *Request, digest string) (*HuntResponse, error) {
	o := req.Options
	tech := techniqueFor(o.Technique)
	if tech == nil {
		return nil, progErrorf("hunt requires a placement technique, not %q", o.Technique)
	}
	start := time.Now()
	f, err := crashtest.Hunt(ctx, crashtest.Case{
		Name:        req.Name,
		Source:      req.Source,
		Technique:   tech.Name(),
		InputSeed:   o.Seed,
		TBPF:        o.TBPF,
		EB:          o.EB,
		ProfileRuns: o.ProfileRuns,
	}, crashtest.Options{})
	resp := &HuntResponse{
		Digest:    digest,
		Name:      req.Name,
		Technique: o.Technique,
		ElapsedMS: float64(time.Since(start)) / float64(time.Millisecond),
	}
	switch {
	case crashtest.IsSkip(err):
		resp.OK = true
		resp.Skipped = err.Error()
	case err != nil:
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, &progError{err}
	case f != nil:
		resp.Class = string(f.Class)
		resp.Schedule = f.Schedule.String()
		resp.Detail = f.Detail
		resp.FoundBy = f.FoundBy
	default:
		resp.OK = true
	}
	return resp, nil
}

// runVerify runs the bounded model checker (internal/verify) on the
// request's program under its technique: every reachable persistent
// state is explored instead of sampled, so an OK response with verdict
// "verified" is a proof over the bounded state space, not an
// unfalsified hunt. The context carries the job deadline; verify folds
// it into its search bound (a mid-search deadline truncates the verdict
// to "bounded" rather than failing the request).
func runVerify(ctx context.Context, req *Request, digest string, progress func(verify.Progress)) (*VerifyResponse, error) {
	o := req.Options
	tech := techniqueFor(o.Technique)
	if tech == nil {
		return nil, progErrorf("verify requires a placement technique, not %q", o.Technique)
	}
	start := time.Now()
	rep, err := verify.Run(ctx, crashtest.Case{
		Name:        req.Name,
		Source:      req.Source,
		Technique:   tech.Name(),
		InputSeed:   o.Seed,
		TBPF:        o.TBPF,
		EB:          o.EB,
		ProfileRuns: o.ProfileRuns,
	}, verify.Options{
		MaxStates: o.MaxStates,
		MaxDepth:  o.MaxDepth,
		Progress:  progress,
	})
	resp := &VerifyResponse{
		Digest:    digest,
		Name:      req.Name,
		Technique: o.Technique,
		ElapsedMS: float64(time.Since(start)) / float64(time.Millisecond),
	}
	switch {
	case crashtest.IsSkip(err):
		resp.OK = true
		resp.Skipped = err.Error()
	case err != nil:
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, &progError{err}
	default:
		resp.Verdict = string(rep.Verdict)
		resp.States = rep.States
		resp.Edges = rep.Edges
		resp.DedupHits = rep.DedupHits
		resp.MaxDepth = rep.MaxDepth
		resp.WaitContract = rep.WaitContract
		resp.Bound = rep.Bound
		if f := rep.Finding; f != nil {
			resp.Class = string(f.Class)
			resp.Schedule = f.Schedule.String()
			resp.Detail = f.Detail
			resp.FoundBy = f.FoundBy
		} else {
			resp.OK = true
		}
	}
	return resp, nil
}
