package verify

import (
	"bytes"
	"context"
	"errors"
	"io"
	"testing"
	"time"

	"schematic/internal/crashtest"
	"schematic/internal/ndjson"
)

// benchCase builds one bench-backed case, optionally sabotaged.
func benchCase(t testing.TB, name, technique string, sabotage int) crashtest.Case {
	t.Helper()
	cases, err := crashtest.BenchCases([]string{name}, []string{technique}, 1)
	if err != nil {
		t.Fatal(err)
	}
	cs := cases[0]
	cs.Sabotage = sabotage
	return cs
}

// TestVerifiedCorrectPlacements: correct placements on the bounded
// subset exhaust their state space with no counterexample, and the
// same-hash windowing keeps the dedup rate far above the 50% bar.
func TestVerifiedCorrectPlacements(t *testing.T) {
	for _, tc := range []struct{ bench, tech string }{
		{"crc", "Ratchet"},
		{"crc", "Alfred"},
		{"randmath", "Ratchet"},
		{"randmath", "Alfred"},
		{"randmath", "Mementos"},
	} {
		t.Run(tc.bench+"/"+tc.tech, func(t *testing.T) {
			rep, err := Run(context.Background(), benchCase(t, tc.bench, tc.tech, 0), Options{})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Verdict != Verified {
				t.Fatalf("verdict = %s (bound %q, finding %+v), want %s",
					rep.Verdict, rep.Bound, rep.Finding, Verified)
			}
			if rep.WaitContract {
				t.Fatalf("anytime technique reported a wait contract")
			}
			if rep.States < 2 || rep.Edges == 0 || rep.MaxDepth == 0 {
				t.Fatalf("degenerate exploration: %+v", rep)
			}
			if rate := float64(rep.DedupHits) / float64(rep.Edges); rate <= 0.5 {
				t.Errorf("dedup rate %.2f (hits %d / edges %d), want > 0.5",
					rate, rep.DedupHits, rep.Edges)
			}
		})
	}
}

// TestCounterexampleReplaysDeterministically: a sabotaged placement must
// produce a counterexample whose shrunk trace survives the NDJSON
// round trip and replays — through the standard repro path — to the
// same class, twice.
func TestCounterexampleReplaysDeterministically(t *testing.T) {
	rep, err := Run(context.Background(), benchCase(t, "randmath", "Alfred", 1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != Counterexample || rep.Finding == nil {
		t.Fatalf("verdict = %s, finding = %+v; want a counterexample", rep.Verdict, rep.Finding)
	}
	f := *rep.Finding
	if f.Class == crashtest.ClassNone {
		t.Fatalf("finding has no class: %+v", f)
	}

	var buf bytes.Buffer
	if err := ndjson.Write(&buf, []crashtest.Finding{f}); err != nil {
		t.Fatal(err)
	}
	back, err := ndjson.Read[crashtest.Finding](&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 {
		t.Fatalf("round trip returned %d findings", len(back))
	}
	for i := 0; i < 2; i++ {
		out, err := crashtest.Replay(back[0])
		if err != nil {
			t.Fatalf("replay %d: %v", i, err)
		}
		if out.Class != f.Class {
			t.Fatalf("replay %d class = %s, want %s (%s)", i, out.Class, f.Class, out.Detail)
		}
	}
}

// TestAgreesWithHunt: on every case both can judge, exhaustive
// verification and sampling agree — both clean, both violated (same
// class need not match: the verifier may reach states sampling's
// schedule families never hit, but found/not-found must), or both
// skipped.
func TestAgreesWithHunt(t *testing.T) {
	huntOpts := crashtest.Options{ExhaustiveStepLimit: 400, SampledSteps: 10, SampledSaves: 3, RandomSchedules: 2}
	for _, tech := range []string{"Ratchet", "Alfred", "Mementos"} {
		for _, sab := range []int{0, 1} {
			t.Run(tech+"/sab"+string(rune('0'+sab)), func(t *testing.T) {
				cs := benchCase(t, "randmath", tech, sab)
				rep, verr := Run(context.Background(), cs, Options{})
				f, herr := crashtest.Hunt(context.Background(), cs, huntOpts)

				var vs, hs *crashtest.SkipError
				vSkip := errors.As(verr, &vs)
				hSkip := errors.As(herr, &hs)
				if vSkip != hSkip {
					t.Fatalf("skip disagreement: verify err=%v, hunt err=%v", verr, herr)
				}
				if vSkip {
					return
				}
				if verr != nil || herr != nil {
					t.Fatalf("verify err=%v, hunt err=%v", verr, herr)
				}
				vFound := rep.Verdict == Counterexample
				hFound := f != nil
				if vFound != hFound {
					t.Fatalf("disagreement: verify=%s, hunt finding=%+v", rep.Verdict, f)
				}
				if !vFound && rep.Verdict != Verified {
					t.Fatalf("clean case not verified: %+v", rep)
				}
			})
		}
	}
}

// TestWaitContract: wait-style placements are verified via their
// no-failure contract, not explored.
func TestWaitContract(t *testing.T) {
	rep, err := Run(context.Background(), benchCase(t, "randmath", "Schematic", 0), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != Verified || !rep.WaitContract || rep.States != 1 {
		t.Fatalf("wait-style report: %+v", rep)
	}
}

// TestBounds: a tight state bound truncates to Bounded and names the
// bound; an already-expired deadline does the same without exploring.
func TestBounds(t *testing.T) {
	rep, err := Run(context.Background(), benchCase(t, "crc", "Ratchet", 0), Options{MaxStates: 8})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != Bounded || rep.Bound != "max-states" {
		t.Fatalf("report: %+v, want bounded by max-states", rep)
	}
	if rep.States > 8 {
		t.Fatalf("states %d exceeds MaxStates 8", rep.States)
	}

	rep, err = Run(context.Background(), benchCase(t, "crc", "Ratchet", 0),
		Options{Deadline: time.Now().Add(-time.Second)})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != Bounded || rep.Bound != "deadline" {
		t.Fatalf("report: %+v, want bounded by deadline", rep)
	}
}

// TestProgress: the progress callback fires with monotonic counters.
func TestProgress(t *testing.T) {
	var calls int
	var last Progress
	_, err := Run(context.Background(), benchCase(t, "randmath", "Ratchet", 0), Options{
		ProgressEvery: 10,
		Progress: func(p Progress) {
			calls++
			if p.States < last.States || p.Edges < last.Edges || p.Explored < last.Explored {
				t.Fatalf("progress went backwards: %+v after %+v", p, last)
			}
			last = p
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("progress never fired")
	}
	if last.States == 0 || last.Edges == 0 {
		t.Fatalf("final progress empty: %+v", last)
	}
	if last.Merged == 0 || last.SkippedSteps == 0 {
		t.Fatalf("final progress reports no merged runs: %+v", last)
	}
}

// TestCancellation: outright cancellation aborts with the context error
// rather than a Bounded report.
func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	opts := Options{Progress: func(Progress) { cancel() }, ProgressEvery: 1}
	_, err := Run(ctx, benchCase(t, "crc", "Ratchet", 0), opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestOptionsFailClosed: Run and a logging Sweeper refuse a negative
// bound with a crashtest.ConfigError naming it, instead of a bounded or
// counterexample verdict. The case has no source, so building it would
// fail with another error: the check precedes every emulator run.
func TestOptionsFailClosed(t *testing.T) {
	unbuilt := crashtest.Case{Name: "unbuilt", Technique: "Ratchet"}
	for _, tc := range []struct {
		field string
		opts  Options
	}{
		{"Options.MaxDepth", Options{MaxDepth: -1}},
		{"Options.MaxStates", Options{MaxStates: -1}},
		{"Options.ProgressEvery", Options{ProgressEvery: -1}},
	} {
		rep, err := Run(context.Background(), unbuilt, tc.opts)
		var ce *crashtest.ConfigError
		if rep != nil || !errors.As(err, &ce) || ce.Field != tc.field {
			t.Errorf("%s: report %+v, err %v; want a ConfigError naming it", tc.field, rep, err)
		}
		r := (&Sweeper{Opts: tc.opts, Log: io.Discard}).Run(context.Background(), []crashtest.Case{unbuilt})[0]
		if r.Report != nil || !errors.As(r.Err, &ce) || ce.Field != tc.field {
			t.Errorf("Sweeper, %s: report %+v, err %v; want a ConfigError naming it", tc.field, r.Report, r.Err)
		}
	}
}
