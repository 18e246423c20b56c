// Package fuzzgen generates random — but well-formed, terminating, and
// runtime-error-free — MiniC programs for differential testing: a fuzzed
// program is transformed by a checkpoint-placement technique and must
// produce the same output under intermittent power as under stable power.
//
// Safety-by-construction rules:
//   - all loops are canonical counted for-loops with @max annotations and
//     a dedicated induction variable, so every program terminates;
//   - array subscripts are masked (`expr & (len-1)`) with power-of-two
//     lengths, so no index is ever out of range;
//   - division and remainder use non-zero constant divisors only;
//   - shift amounts are constants in [0, 12].
package fuzzgen

import (
	"fmt"
	"math/rand"
	"strings"
)

// Options bounds the generated program.
type Options struct {
	// MaxFuncs is the number of helper functions (besides main), ≤ 4.
	MaxFuncs int `json:"max_funcs"`
	// MaxStmts bounds the statements per block.
	MaxStmts int `json:"max_stmts"`
	// MaxDepth bounds statement nesting.
	MaxDepth int `json:"max_depth"`
	// MaxLoopIter bounds each loop's trip count.
	MaxLoopIter int `json:"max_loop_iter"`

	// WARDepth, when positive, appends a chain of this many
	// read-modify-write statements on nonvolatile globals to main. Each
	// statement reads the global it writes — a write-after-read hazard
	// on NV state — so WAR-breaking placements (Ratchet) must spend a
	// checkpoint per link, and idempotency-based ones must not let a
	// replay observe the new value. Zero (the default) emits nothing
	// and consumes no randomness, so corpora serialized before this
	// knob existed regenerate unchanged.
	WARDepth int `json:"war_depth,omitempty"`

	// HotLoop, when positive, appends a loop with this trip count and a
	// single-statement body to main: so little work per iteration that
	// the loop body alone can never reach a time-between-failures
	// budget, forcing placement to either straddle the loop or split
	// it. Zero (the default) emits nothing and consumes no randomness.
	HotLoop int `json:"hot_loop,omitempty"`
}

// DefaultOptions are sized so a program runs in well under a millisecond
// on the emulator.
func DefaultOptions() Options {
	return Options{MaxFuncs: 3, MaxStmts: 5, MaxDepth: 3, MaxLoopIter: 9}
}

// AdversarialOptions are DefaultOptions plus the placement-adversarial
// shapes: a deep write-after-read chain and a tiny hot loop sized to
// straddle the TBPF budgets the evaluation grid uses.
func AdversarialOptions() Options {
	o := DefaultOptions()
	o.WARDepth = 12
	o.HotLoop = 800
	return o
}

// Program is one reproducible generated program: (Seed, Options) fully
// determine Source, so a serialized program can be regenerated and
// verified instead of trusted.
type Program struct {
	Seed    int64   `json:"seed"`
	Options Options `json:"options"`
	Source  string  `json:"source"`
}

// FromSeed deterministically regenerates the program of (seed, opts).
func FromSeed(seed int64, opts Options) Program {
	src := Generate(rand.New(rand.NewSource(seed)), opts)
	return Program{Seed: seed, Options: opts, Source: src}
}

// Regenerate re-derives the source from the program's seed and options
// and reports whether it matches the stored Source — the integrity check
// replay tools run before trusting a repro file.
func (p Program) Regenerate() (Program, bool) {
	q := FromSeed(p.Seed, p.Options)
	return q, p.Source == "" || q.Source == p.Source
}

// CaseSource is the one provenance check of a case generated from p: it
// returns the source the case compiles, which is the regenerated one.
// source is the case's own source, and empty takes the regenerated one.
// A source, or p's stored Source, that differs from the regeneration is
// an error, so a replay never compiles a program its provenance does
// not describe.
func (p Program) CaseSource(source string) (string, error) {
	q, ok := p.Regenerate()
	if !ok || source != "" && source != q.Source {
		return "", fmt.Errorf("stored source does not match fuzz seed %d", p.Seed)
	}
	return q.Source, nil
}

// Reductions yields the one-step tightenings of the options, the
// candidates a shrinker regenerates a counterexample's seed under.
func (o Options) Reductions() []Options {
	var out []Options
	if o.MaxFuncs > 0 {
		r := o
		r.MaxFuncs--
		out = append(out, r)
	}
	if o.MaxStmts > 1 {
		r := o
		r.MaxStmts--
		out = append(out, r)
	}
	if o.MaxDepth > 1 {
		r := o
		r.MaxDepth--
		out = append(out, r)
	}
	if o.MaxLoopIter > 1 {
		r := o
		r.MaxLoopIter /= 2
		out = append(out, r)
	}
	return out
}

// Corpus derives n reproducible programs from a base seed. Seeds are
// spaced so corpora with different bases do not trivially overlap.
func Corpus(baseSeed int64, n int, opts Options) []Program {
	out := make([]Program, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, FromSeed(baseSeed+int64(i)*1_000_003, opts))
	}
	return out
}

// MixedCorpus derives n programs with Corpus's seed spacing but gives
// every third program the adversarial shapes, so one fuzz stream sweeps
// both plain and placement-adversarial inputs.
func MixedCorpus(baseSeed int64, n int) []Program {
	out := make([]Program, 0, n)
	for i := 0; i < n; i++ {
		opts := DefaultOptions()
		if i%3 == 2 {
			opts = AdversarialOptions()
		}
		out = append(out, FromSeed(baseSeed+int64(i)*1_000_003, opts))
	}
	return out
}

type gen struct {
	r    *rand.Rand
	opts Options
	b    strings.Builder

	globals []varInfo // scalars and arrays
	funcs   []funcInfo
	indent  int
	loopVar int // fresh induction-variable counter per function
}

type varInfo struct {
	name  string
	elems int // 1 for scalars; power of two for arrays
}

type funcInfo struct {
	name   string
	params []string
	hasRet bool
}

// Generate produces one random program.
func Generate(r *rand.Rand, opts Options) string {
	if opts.MaxFuncs > 4 {
		opts.MaxFuncs = 4
	}
	g := &gen{r: r, opts: opts}
	g.program()
	return g.b.String()
}

func (g *gen) w(format string, args ...any) {
	g.b.WriteString(strings.Repeat("  ", g.indent))
	fmt.Fprintf(&g.b, format, args...)
	g.b.WriteByte('\n')
}

func (g *gen) program() {
	// Globals: 1 input array, 1-3 plain globals, 0-2 extra arrays.
	sizes := []int{4, 8, 16, 32}
	inElems := sizes[g.r.Intn(len(sizes))]
	g.w("input int in0[%d];", inElems)
	g.globals = append(g.globals, varInfo{"in0", inElems})
	for i := 0; i < 1+g.r.Intn(3); i++ {
		name := fmt.Sprintf("g%d", i)
		g.w("int %s;", name)
		g.globals = append(g.globals, varInfo{name, 1})
	}
	for i := 0; i < g.r.Intn(3); i++ {
		name := fmt.Sprintf("arr%d", i)
		elems := sizes[g.r.Intn(len(sizes))]
		g.w("int %s[%d];", name, elems)
		g.globals = append(g.globals, varInfo{name, elems})
	}
	g.w("")

	// Helper functions, generated before main so calls resolve textually
	// top-down (the parser allows any order, this is just tidier).
	nf := g.r.Intn(g.opts.MaxFuncs + 1)
	for i := 0; i < nf; i++ {
		g.helper(i)
	}
	g.mainFunc()
}

func (g *gen) helper(idx int) {
	fi := funcInfo{name: fmt.Sprintf("f%d", idx), hasRet: g.r.Intn(4) != 0}
	for p := 0; p < 1+g.r.Intn(2); p++ {
		fi.params = append(fi.params, fmt.Sprintf("p%d", p))
	}
	ret := "void"
	if fi.hasRet {
		ret = "int"
	}
	var params []string
	for _, p := range fi.params {
		params = append(params, "int "+p)
	}
	g.w("func %s %s(%s) {", ret, fi.name, strings.Join(params, ", "))
	g.indent++
	locals := g.declLocals(1 + g.r.Intn(2))
	scope := newScope(g.globals, locals, fi.params)
	g.loopVar = 0
	g.stmts(scope, g.opts.MaxDepth-2, nil) // helpers are leaves: no helper-call chains
	if fi.hasRet {
		g.w("return %s;", g.expr(scope, 2))
	}
	g.indent--
	g.w("}")
	g.w("")
	// Register after generation so helpers never call themselves.
	g.funcs = append(g.funcs, fi)
}

func (g *gen) mainFunc() {
	g.w("func void main() {")
	g.indent++
	locals := g.declLocals(1 + g.r.Intn(3))
	scope := newScope(g.globals, locals, nil)
	g.loopVar = 0
	g.stmts(scope, g.opts.MaxDepth, g.funcs)
	if g.opts.WARDepth > 0 {
		g.warChain()
	}
	if g.opts.HotLoop > 0 {
		g.hotLoop()
	}
	// Deterministic observable output over all state.
	for _, v := range g.globals {
		if v.elems == 1 {
			g.w("print(%s);", v.name)
		} else {
			g.w("print(%s[0] + %s[%d]);", v.name, v.name, v.elems-1)
		}
	}
	for _, v := range locals {
		if v.elems == 1 {
			g.w("print(%s);", v.name)
		}
	}
	g.indent--
	g.w("}")
}

// globalScalars lists the plain nonvolatile globals (g0 always exists).
func (g *gen) globalScalars() []string {
	var out []string
	for _, v := range g.globals {
		if v.elems == 1 {
			out = append(out, v.name)
		}
	}
	return out
}

// warChain emits WARDepth read-modify-write statements on the global
// scalars. Every statement's right-hand side reads its own target —
// sometimes through data-dependent addressing into the input array — so
// each link is a genuine WAR hazard on nonvolatile state.
func (g *gen) warChain() {
	scalars := g.globalScalars()
	in := g.globals[0] // the input array, declared first
	ops := []string{"+", "^", "|"}
	for i := 0; i < g.opts.WARDepth; i++ {
		tgt := scalars[g.r.Intn(len(scalars))]
		op := ops[g.r.Intn(len(ops))]
		var src string
		switch g.r.Intn(3) {
		case 0: // data-dependent load: the index itself reads the target
			src = fmt.Sprintf("%s[(%s) & %d]", in.name, tgt, in.elems-1)
		case 1:
			src = scalars[g.r.Intn(len(scalars))]
		default:
			src = fmt.Sprintf("%d", 1+g.r.Intn(2000))
		}
		g.w("%s = (%s %s %s) & 0x3FFF;", tgt, tgt, op, src)
	}
}

// hotLoop emits a counted loop with a single-statement body and a trip
// count far above MaxLoopIter (capped at 4096 to bound runtime). All
// induction variables are free again by the time mainFunc calls this,
// so iv0 is safe to reuse.
func (g *gen) hotLoop() {
	iters := g.opts.HotLoop
	if iters > 4096 {
		iters = 4096
	}
	scalars := g.globalScalars()
	tgt := scalars[g.r.Intn(len(scalars))]
	in := g.globals[0]
	g.w("for (iv0 = 0; iv0 < %d; iv0 = iv0 + 1) @max(%d) {", iters, iters)
	g.indent++
	g.w("%s = (%s + %s[iv0 & %d]) & 0x3FFF;", tgt, tgt, in.name, in.elems-1)
	g.indent--
	g.w("}")
}

// declLocals emits local declarations and returns their info.
func (g *gen) declLocals(n int) []varInfo {
	var locals []varInfo
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("l%d", i)
		if g.r.Intn(3) == 0 {
			elems := []int{4, 8}[g.r.Intn(2)]
			g.w("int %s[%d];", name, elems)
			locals = append(locals, varInfo{name, elems})
		} else {
			g.w("int %s;", name)
			locals = append(locals, varInfo{name, 1})
		}
	}
	// Loop induction variables are pre-declared.
	for i := 0; i < 4; i++ {
		g.w("int iv%d;", i)
	}
	// Initialize locals so reads never see uninitialized storage.
	for _, v := range locals {
		if v.elems == 1 {
			g.w("%s = %d;", v.name, g.r.Intn(100))
		} else {
			g.w("%s[0] = %d;", v.name, g.r.Intn(100))
			for e := 1; e < v.elems; e++ {
				g.w("%s[%d] = %d;", v.name, e, g.r.Intn(100))
			}
		}
	}
	return locals
}

// scope tracks what an expression may reference.
type scope struct {
	scalars []string // assignable scalar names (globals + locals)
	arrays  []varInfo
	params  []string // readable (and assignable) register-backed names
}

func newScope(globals, locals []varInfo, params []string) *scope {
	s := &scope{params: params}
	for _, v := range append(append([]varInfo{}, globals...), locals...) {
		if v.elems == 1 {
			s.scalars = append(s.scalars, v.name)
		} else {
			s.arrays = append(s.arrays, v)
		}
	}
	return s
}

func (g *gen) stmts(s *scope, depth int, callable []funcInfo) {
	n := 1 + g.r.Intn(g.opts.MaxStmts)
	for i := 0; i < n; i++ {
		g.stmt(s, depth, callable)
	}
}

func (g *gen) stmt(s *scope, depth int, callable []funcInfo) {
	choice := g.r.Intn(10)
	switch {
	case choice < 4 || depth <= 0: // assignment
		g.assign(s, callable)
	case choice < 6: // if / if-else
		g.w("if (%s) {", g.expr(s, 2))
		g.indent++
		g.stmts(s, depth-1, callable)
		g.indent--
		if g.r.Intn(2) == 0 {
			g.w("} else {")
			g.indent++
			g.stmts(s, depth-1, callable)
			g.indent--
		}
		g.w("}")
	case choice < 9: // counted loop
		if g.loopVar >= 4 {
			g.assign(s, callable)
			return
		}
		iv := fmt.Sprintf("iv%d", g.loopVar)
		g.loopVar++
		iters := 2 + g.r.Intn(g.opts.MaxLoopIter-1)
		g.w("for (%s = 0; %s < %d; %s = %s + 1) @max(%d) {", iv, iv, iters, iv, iv, iters)
		g.indent++
		g.stmts(s, depth-1, callable)
		g.indent--
		g.w("}")
		g.loopVar--
	default: // call for effect, when a void helper exists
		var voids []funcInfo
		for _, f := range callable {
			if !f.hasRet {
				voids = append(voids, f)
			}
		}
		if len(voids) == 0 {
			g.assign(s, callable)
			return
		}
		f := voids[g.r.Intn(len(voids))]
		g.w("%s(%s);", f.name, g.args(s, f))
	}
}

func (g *gen) assign(s *scope, callable []funcInfo) {
	// Target: scalar, array element, or parameter.
	switch k := g.r.Intn(6); {
	case k < 3 && len(s.scalars) > 0:
		g.w("%s = %s;", s.scalars[g.r.Intn(len(s.scalars))], g.rhs(s, callable))
	case k < 5 && len(s.arrays) > 0:
		a := s.arrays[g.r.Intn(len(s.arrays))]
		g.w("%s[(%s) & %d] = %s;", a.name, g.expr(s, 2), a.elems-1, g.rhs(s, callable))
	case len(s.params) > 0:
		g.w("%s = %s;", s.params[g.r.Intn(len(s.params))], g.rhs(s, callable))
	case len(s.scalars) > 0:
		g.w("%s = %s;", s.scalars[g.r.Intn(len(s.scalars))], g.rhs(s, callable))
	default:
		g.w("g0 = %s;", g.rhs(s, callable))
	}
}

// rhs is an expression that may also be a call to a value-returning helper.
func (g *gen) rhs(s *scope, callable []funcInfo) string {
	var rets []funcInfo
	for _, f := range callable {
		if f.hasRet {
			rets = append(rets, f)
		}
	}
	if len(rets) > 0 && g.r.Intn(4) == 0 {
		f := rets[g.r.Intn(len(rets))]
		return fmt.Sprintf("%s(%s)", f.name, g.args(s, f))
	}
	return g.expr(s, 3)
}

func (g *gen) args(s *scope, f funcInfo) string {
	var args []string
	for range f.params {
		args = append(args, g.expr(s, 2))
	}
	return strings.Join(args, ", ")
}

var safeBinOps = []string{"+", "-", "*", "&", "|", "^", "<", "<=", ">", ">=", "==", "!="}

func (g *gen) expr(s *scope, depth int) string {
	if depth <= 0 {
		return g.atom(s)
	}
	switch g.r.Intn(8) {
	case 0:
		return g.atom(s)
	case 1: // masked arithmetic keeps magnitudes bounded
		return fmt.Sprintf("(%s) & 0x3FFF", g.expr(s, depth-1))
	case 2: // safe division / remainder by a non-zero constant
		op := "/"
		if g.r.Intn(2) == 0 {
			op = "%"
		}
		return fmt.Sprintf("((%s) & 0x3FFF) %s %d", g.expr(s, depth-1), op, 2+g.r.Intn(17))
	case 3: // constant shift
		dir := "<<"
		if g.r.Intn(2) == 0 {
			dir = ">>"
		}
		return fmt.Sprintf("((%s) & 0x3FFF) %s %d", g.expr(s, depth-1), dir, g.r.Intn(13))
	case 4:
		return fmt.Sprintf("(!(%s))", g.expr(s, depth-1))
	default:
		op := safeBinOps[g.r.Intn(len(safeBinOps))]
		return fmt.Sprintf("(%s %s %s)", g.expr(s, depth-1), op, g.expr(s, depth-1))
	}
}

func (g *gen) atom(s *scope) string {
	choices := 3 + len(s.params)
	switch k := g.r.Intn(choices); {
	case k == 0:
		return fmt.Sprintf("%d", g.r.Intn(2000))
	case k == 1 && len(s.scalars) > 0:
		return s.scalars[g.r.Intn(len(s.scalars))]
	case k == 2 && len(s.arrays) > 0:
		a := s.arrays[g.r.Intn(len(s.arrays))]
		return fmt.Sprintf("%s[(%s) & %d]", a.name, g.atomScalar(s), a.elems-1)
	default:
		if len(s.params) > 0 {
			return s.params[g.r.Intn(len(s.params))]
		}
		return fmt.Sprintf("%d", g.r.Intn(2000))
	}
}

func (g *gen) atomScalar(s *scope) string {
	if len(s.scalars) > 0 && g.r.Intn(2) == 0 {
		return s.scalars[g.r.Intn(len(s.scalars))]
	}
	return fmt.Sprintf("%d", g.r.Intn(64))
}
