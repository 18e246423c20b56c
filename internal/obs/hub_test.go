package obs_test

import (
	"math"
	"sync"
	"testing"
	"time"

	"schematic/internal/emulator"
	"schematic/internal/energy"
	"schematic/internal/obs"
)

// drainSub reads a subscriber to completion (open == false), returning
// every delivered event in order.
func drainSub(sub *obs.Sub) []obs.SeqEvent {
	var out []obs.SeqEvent
	buf := make([]obs.SeqEvent, 128)
	for {
		n, open := sub.Next(buf)
		out = append(out, buf[:n]...)
		if n == 0 {
			if !open {
				return out
			}
			<-sub.Ready()
		}
	}
}

// TestHubStress32Subscribers runs one emulation fanned out to 32
// subscribers, several deliberately slow with tiny windows. The run
// must finish without ever blocking on a reader; fast subscribers must
// see the whole stream gaplessly; and every subscriber's
// received+dropped counts must reconcile exactly with the number of
// events emitted. Run under -race this also proves the
// subscribe/fan-out/close paths are data-race free.
func TestHubStress32Subscribers(t *testing.T) {
	const nSubs = 32
	const nSlow = 6 // subscribers 0..5 are slow with 4-event windows

	col := obs.NewCollector()
	hub := obs.NewHub(1<<16, col)

	type tally struct {
		received int64
		gapless  bool // seqs were 0,1,2,... with no holes
	}
	subs := make([]*obs.Sub, nSubs)
	tallies := make([]tally, nSubs)
	var wg sync.WaitGroup
	for i := 0; i < nSubs; i++ {
		queue := 1 << 16 // fast: window covers every event
		if i < nSlow {
			queue = 4
		}
		sub := hub.Subscribe(-1, queue)
		subs[i] = sub
		wg.Add(1)
		go func(i int, sub *obs.Sub) {
			defer wg.Done()
			next, gapless := int64(0), true
			slowFor := 0
			if i < nSlow {
				slowFor = 32 // stall on the first events to force drops
			}
			buf := make([]obs.SeqEvent, 16)
			for {
				n, open := sub.Next(buf)
				for j := 0; j < n; j++ {
					se := buf[j]
					if se.Seq != next {
						gapless = false
					}
					next = se.Seq + 1
					tallies[i].received++
					if slowFor > 0 {
						slowFor--
						time.Sleep(500 * time.Microsecond)
					}
				}
				if n == 0 {
					if !open {
						break
					}
					<-sub.Ready()
				}
			}
			tallies[i].gapless = gapless
		}(i, sub)
	}

	start := time.Now()
	res := runObserved(t, hub)
	emuElapsed := time.Since(start)
	hub.Close()
	wg.Wait()

	emitted := hub.Emitted()
	if emitted == 0 {
		t.Fatal("no events emitted")
	}
	// The emulator side must not have been stalled by the sleeping
	// readers: the whole run is a few thousand events of in-memory work.
	if emuElapsed > 10*time.Second {
		t.Fatalf("emulation took %v — a slow subscriber blocked the hot path", emuElapsed)
	}

	var droppedSum int64
	for i := 0; i < nSubs; i++ {
		got := tallies[i].received + subs[i].Dropped()
		if got != emitted {
			t.Errorf("sub %d: received %d + dropped %d = %d, want %d emitted",
				i, tallies[i].received, subs[i].Dropped(), got, emitted)
		}
		if i >= nSlow {
			if !tallies[i].gapless || subs[i].Dropped() != 0 {
				t.Errorf("fast sub %d: gapless=%v dropped=%d, want a gapless full stream",
					i, tallies[i].gapless, subs[i].Dropped())
			}
		}
		droppedSum += subs[i].Dropped()
	}
	// The tiny-queue sleepers must actually have lost events, or the
	// stress proved nothing.
	if droppedSum == 0 {
		t.Error("no subscriber dropped anything — slow-path never exercised")
	}
	if hub.Dropped() != droppedSum {
		t.Errorf("hub dropped %d, subscriber sum %d", hub.Dropped(), droppedSum)
	}
	// The inner observer saw every event under the same lock.
	if err := col.Reconcile(res); err != nil {
		t.Errorf("inner collector diverged: %v", err)
	}
}

// TestHubBacklogReplayAndResume checks ring replay: subscribing after
// the run ends replays the retained stream, resuming from a mid-stream
// seq replays exactly the suffix, resuming from the newest seq or past
// it replays nothing, and a ring smaller than the stream starts the
// backlog at the oldest retained event (the caller-visible gap signal).
func TestHubBacklogReplayAndResume(t *testing.T) {
	hub := obs.NewHub(1<<16, nil)
	runObserved(t, hub)
	hub.Close()

	emitted := hub.Emitted()
	// A window of 1 must not clip replay of retained history: the
	// window bounds a live publisher's backlog, not the ring.
	all := drainSub(hub.Subscribe(-1, 1))
	if int64(len(all)) != emitted {
		t.Fatalf("full replay: %d events, want %d", len(all), emitted)
	}
	for i, se := range all {
		if se.Seq != int64(i) {
			t.Fatalf("replay seq[%d] = %d", i, se.Seq)
		}
	}

	after := emitted / 2
	suffix := drainSub(hub.Subscribe(after, 1))
	if int64(len(suffix)) != emitted-after-1 {
		t.Fatalf("resume from %d: %d events, want %d", after, len(suffix), emitted-after-1)
	}
	if len(suffix) > 0 && suffix[0].Seq != after+1 {
		t.Fatalf("resume from %d starts at %d", after, suffix[0].Seq)
	}

	// The newest seq, or any id past it, is caught up: nothing replays,
	// and a live hub delivers exactly what it emits next.
	for _, from := range []int64{emitted - 1, emitted, math.MaxInt64} {
		if got := drainSub(hub.Subscribe(from, 1)); len(got) != 0 {
			t.Fatalf("resume from %d replayed %d events from %d, want none", from, len(got), got[0].Seq)
		}
	}
	live := obs.NewHub(1<<16, nil)
	ev := emulator.Event{Kind: emulator.EvCharge, Class: emulator.ChargeCompute, Energy: 1}
	for i := 0; i < 5; i++ {
		live.Event(ev)
	}
	sub := live.Subscribe(math.MaxInt64, 0)
	live.Event(ev)
	live.Close()
	if got := drainSub(sub); len(got) != 1 || got[0].Seq != 5 {
		t.Fatalf("live resume past the newest id delivered %v, want the next event, seq 5", got)
	}

	// A hub whose ring is smaller than the stream evicts the prefix.
	small := obs.NewHub(64, nil)
	runObserved(t, small)
	small.Close()
	if small.OldestRetained() == 0 {
		t.Fatal("64-slot ring never wrapped — fixture too small")
	}
	if small.Retained() != 64 {
		t.Fatalf("retained %d, want 64", small.Retained())
	}
	got := drainSub(small.Subscribe(-1, 1))
	if int64(len(got)) != 64 || got[0].Seq != small.OldestRetained() {
		t.Fatalf("evicted replay: %d events from %d, want 64 from %d",
			len(got), got[0].Seq, small.OldestRetained())
	}
	for i := 1; i < len(got); i++ {
		if got[i].Seq != got[i-1].Seq+1 {
			t.Fatalf("evicted replay not contiguous at %d", i)
		}
	}
}

// TestHubEventAllocFree proves the hot path stays allocation-free with
// no subscribers (ring append only) and with an attached subscriber
// within its window (ring append + wake signal).
func TestHubEventAllocFree(t *testing.T) {
	ev := emulator.Event{Kind: emulator.EvCharge, Class: emulator.ChargeCompute, Energy: 1}

	noSubs := obs.NewHub(1024, nil)
	if allocs := testing.AllocsPerRun(200, func() { noSubs.Event(ev) }); allocs != 0 {
		t.Errorf("no-subscriber Event: %v allocs/op, want 0", allocs)
	}

	withSub := obs.NewHub(1024, nil)
	sub := withSub.Subscribe(-1, 1<<20)
	defer withSub.Unsubscribe(sub)
	if allocs := testing.AllocsPerRun(200, func() { withSub.Event(ev) }); allocs != 0 {
		t.Errorf("one-subscriber Event: %v allocs/op, want 0", allocs)
	}
}

// TestNilObserverRunAllocBaseline re-pins the emulator-side invariant
// the hub must not disturb: an unobserved intermittent run allocates a
// fixed setup cost, independent of how long the program runs (no
// per-instruction or per-event allocation). The per-instruction check
// lives in internal/emulator; this guards it from the obs side, where
// hub plumbing is wired up.
func TestNilObserverRunAllocBaseline(t *testing.T) {
	short, long := fixedProgram(t, 4), fixedProgram(t, 64)
	cfg := emulator.Config{
		Model:        energy.MSP430FR5969(),
		VMSize:       2048,
		Intermittent: true,
		EB:           400,
	}
	allocsShort := testing.AllocsPerRun(5, func() {
		if _, err := emulator.Run(short, cfg); err != nil {
			t.Fatal(err)
		}
	})
	allocsLong := testing.AllocsPerRun(5, func() {
		if _, err := emulator.Run(long, cfg); err != nil {
			t.Fatal(err)
		}
	})
	// 16x the work must not mean materially more allocations.
	if allocsLong > allocsShort+8 {
		t.Errorf("nil-observer allocs grew with run length: %v (n=4) -> %v (n=64)",
			allocsShort, allocsLong)
	}
}

// TestHubCloseSemantics: Close is idempotent, post-close events are
// ignored, Unsubscribe after Close is a no-op, and a subscriber
// detached mid-run stops at the detach point without disturbing others.
func TestHubCloseSemantics(t *testing.T) {
	hub := obs.NewHub(16, nil)
	a := hub.Subscribe(-1, 16)
	b := hub.Subscribe(-1, 16)

	ev := emulator.Event{Kind: emulator.EvBlockEnter}
	hub.Event(ev)
	hub.Unsubscribe(a)
	hub.Event(ev)
	if got := len(drainSub(a)); got != 1 {
		t.Errorf("detached sub delivered %d events, want 1 (pre-detach only)", got)
	}
	hub.Close()
	hub.Close() // idempotent
	hub.Event(ev)
	hub.Unsubscribe(b) // no-op after Close
	if hub.Emitted() != 2 {
		t.Errorf("emitted %d, want 2 (post-close event ignored)", hub.Emitted())
	}
	if got := len(drainSub(b)); got != 2 {
		t.Errorf("sub b drained %d events, want 2", got)
	}
	if hub.Subscribers() != 0 {
		t.Errorf("subscribers %d after close", hub.Subscribers())
	}
}
