package bench

import (
	"context"
	"errors"
	"testing"
	"time"

	"schematic/internal/emulator"
	"schematic/internal/trace"
)

// TestRunGridCancellation: a cancelled context makes a grid run return
// promptly with ctx.Err() instead of running every cell to completion.
func TestRunGridCancellation(t *testing.T) {
	h := NewHarness()
	h.ProfileRuns = 2
	h.Jobs = 2

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the grid even starts

	start := time.Now()
	_, err := h.RunGrid(ctx, "cancelled", cheapGrid(t))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled RunGrid: got %v, want context.Canceled", err)
	}
	// A full cheapGrid run takes seconds; a cancelled one must not.
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("cancelled RunGrid took %v, want prompt return", el)
	}
	cs := h.CacheStats()
	if cs.ProfileMisses != 0 {
		t.Fatalf("cancelled RunGrid still profiled: %+v", cs)
	}
}

// TestRunGridCancelMidFlight cancels while the grid is running and
// requires ctx.Err() back, with at most the in-flight cells finishing.
func TestRunGridCancelMidFlight(t *testing.T) {
	h := NewHarness()
	h.ProfileRuns = 2
	h.Jobs = 1

	ctx, cancel := context.WithCancel(context.Background())
	// Cancel synchronously from the first cell's observer hook: the hook
	// fires before that cell's emulate phase, so the cancellation is
	// already visible at the next phase-boundary check and the rest of
	// the grid stays undispatched. (An asynchronous cancel races the
	// remaining cells — the emulator is fast enough to finish a cheap
	// grid before a goroutine gets scheduled.)
	var once bool
	h.CellObserver = func(bench, technique string, tbpf int64) emulator.Observer {
		if !once {
			once = true
			cancel()
		}
		return nil
	}

	_, err := h.RunGrid(ctx, "mid-cancel", cheapGrid(t))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-flight cancel: got %v, want context.Canceled", err)
	}
}

// TestProfileRespectsContext: a done context is rejected before the
// profile computation is admitted.
func TestProfileRespectsContext(t *testing.T) {
	h := NewHarness()
	h.ProfileRuns = 2
	b, err := ByName("randmath")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := h.Profile(ctx, b); !errors.Is(err, context.Canceled) {
		t.Fatalf("Profile with done ctx: got %v, want context.Canceled", err)
	}
	if _, err := h.ReferenceAllVM(ctx, b); !errors.Is(err, context.Canceled) {
		t.Fatalf("ReferenceAllVM with done ctx: got %v, want context.Canceled", err)
	}
	if cs := h.CacheStats(); cs.ProfileMisses+cs.RefMisses != 0 {
		t.Fatalf("done ctx still touched the caches: %+v", cs)
	}
}

// TestProfileFollowerRespectsContext: a caller that finds the profile in
// flight stops waiting when its own context ends, and the leader's
// profile is still cached for the next caller.
func TestProfileFollowerRespectsContext(t *testing.T) {
	h := NewHarness()
	h.ProfileRuns = 2
	b, err := ByName("randmath")
	if err != nil {
		t.Fatal(err)
	}
	// The test leads the profile entry, so the call below can only
	// follow it, and its deadline passes while it waits.
	key := profileKey{bench: b.Name, runs: h.ProfileRuns, seed: h.Seed, model: h.Model}
	e, leader := h.profiles.Begin(key)
	if !leader {
		t.Fatal("fresh harness already has a profile entry")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := h.Profile(ctx, b)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("follower past its deadline: got %v, want context.DeadlineExceeded", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("follower still waiting 10s after its context ended")
	}

	m, err := b.Module()
	if err != nil {
		t.Fatal(err)
	}
	p, err := trace.Collect(m, trace.Options{Runs: key.runs, Seed: key.seed, Model: key.model})
	h.profiles.Complete(key, e, p, err, true)
	got, err := h.Profile(context.Background(), b)
	if err != nil || got != p {
		t.Fatalf("after the leader completed: got %p, %v; want the leader's profile %p", got, err, p)
	}
	if cs := h.CacheStats(); cs.ProfileMisses != 1 || cs.ProfileHits != 2 {
		t.Errorf("profile cache traffic = %d misses / %d hits, want 1/2", cs.ProfileMisses, cs.ProfileHits)
	}
}
