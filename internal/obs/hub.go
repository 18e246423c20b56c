package obs

import (
	"sync"
	"sync/atomic"
)

// Seq is one published payload stamped with its position in the log.
// Seq is dense and zero-based: the Nth payload a hub sees gets Seq N-1,
// so a subscriber can detect drops (a jump) and a resuming client can
// name exactly where it left off.
type Seq[T any] struct {
	Seq   int64
	Event T
}

// Hub is a concurrent fan-out for one log of payloads: an emulation
// run's event stream (Hub[emulator.Event]) or a grid's completed cells.
// Publishing is Event, so a *Hub[emulator.Event] is itself an
// emulator.Observer: the emulator delivers events synchronously from
// its hot loop, and the hub
//
//   - forwards each event to an optional inner observer (e.g. a
//     Collector building attribution ledgers). A hub is not an
//     emulator.Attributor, since subscribers read every event, so a
//     hubbed run steps and its Collector folds every charge into its
//     ledgers itself, under the hub's lock;
//   - retains the most recent events in a fixed ring buffer so late or
//     resuming subscribers can replay history (a ring as long as the
//     whole log, read with a window as long, loses nothing), and
//   - multicasts to any number of subscribers, each a bounded-window
//     cursor into that ring.
//
// Subscribers do not get per-event deliveries: each Sub is a cursor the
// reader advances by batch-copying pending events out of the ring
// (Next), woken by a coalescing one-slot signal channel (Ready). The
// publisher therefore pays one compare and one non-blocking channel
// send per subscriber per event — when the reader is already awake and
// draining, the send hits a full channel and costs nothing, so wake-ups
// amortize across whole batches instead of taxing every event.
//
// The hot-path contract is strict: Event never blocks and never
// allocates. A subscriber that falls more than its window behind the
// stream loses the oldest pending events — the loss is counted, per
// subscriber and hub-wide, never waited out — so a slow reader cannot
// stall the emulator. Fast readers (who stay within their window) see
// every event in order.
//
// The zero stages of observation stay free: a nil emulator observer
// skips event construction entirely (the hub is simply not attached),
// and a hub with no subscribers only appends to its preallocated ring.
type Hub[T any] struct {
	mu     sync.Mutex
	inner  interface{ Event(T) }
	ring   []Seq[T]  // fixed-size; event seq s lives at s % len(ring)
	next   int64     // events emitted so far == next seq to assign
	subs   []*Sub[T] // a slice, not a map: Event iterates it per event
	closed bool

	dropped atomic.Int64 // events lost across all subscribers
}

// DefaultRing is the per-run event retention used when NewHub is given
// a non-positive capacity.
const DefaultRing = 8192

// NewHub builds a hub retaining the last ring events (DefaultRing when
// ring <= 0). inner, when non-nil, receives every event synchronously
// under the hub's lock before fan-out; Sync grants readers the same
// lock, so inner's state can be snapshotted mid-run without a race.
func NewHub[T any](ring int, inner interface{ Event(T) }) *Hub[T] {
	if ring <= 0 {
		ring = DefaultRing
	}
	return &Hub[T]{
		inner: inner,
		ring:  make([]Seq[T], ring),
	}
}

// Sub is one subscriber: a cursor into the hub's ring plus a one-slot
// wake channel. The reader loop is
//
//	for {
//	    n, open := sub.Next(buf)
//	    // handle buf[:n]
//	    if n == 0 {
//	        if !open { break }
//	        <-sub.Ready() // or select with a context/ticker
//	    }
//	}
//
// cursor, window, and limit are guarded by the hub's mutex.
type Sub[T any] struct {
	h       *Hub[T]
	cursor  int64         // next seq this subscriber will read
	window  int64         // max live backlog before the oldest pending events drop
	limit   int64         // seq bound set by Unsubscribe; -1 = none
	sig     chan struct{} // capacity 1; a token means "check Next again"
	dropped atomic.Int64
}

// Ready is the subscriber's wake channel. A receive means events may be
// pending or the hub closed — call Next to find out. Signals coalesce:
// any number of publishes while the reader is busy collapse into one
// token, so a reader never queues stale wake-ups.
func (s *Sub[T]) Ready() <-chan struct{} { return s.sig }

// Dropped counts events this subscriber lost by falling behind its
// window (or the ring). It is safe to read while the run is live.
func (s *Sub[T]) Dropped() int64 { return s.dropped.Load() }

// Next copies pending events into buf in seq order, advancing the
// cursor, and reports whether the feed is still open. n == 0 with
// open true means "caught up — wait on Ready"; open false means the
// stream is complete (hub closed or subscriber detached, and every
// remaining event delivered). If the ring lapped the cursor while
// subscribed, the lost events are counted and the cursor jumps to the
// oldest retained event (the seq jump is the caller's gap signal).
func (s *Sub[T]) Next(buf []Seq[T]) (n int, open bool) {
	h := s.h
	h.mu.Lock()
	defer h.mu.Unlock()
	lo := h.next - int64(len(h.ring))
	if lo < 0 {
		lo = 0
	}
	if s.cursor < lo { // lapped by the ring while subscribed
		d := lo - s.cursor
		s.cursor = lo
		s.dropped.Add(d)
		h.dropped.Add(d)
	}
	hi := h.next
	if s.limit >= 0 && s.limit < hi {
		hi = s.limit
	}
	for n < len(buf) && s.cursor < hi {
		buf[n] = h.ring[s.cursor%int64(len(h.ring))]
		n++
		s.cursor++
	}
	return n, s.cursor < hi || (s.limit < 0 && !h.closed)
}

// Event publishes e; on a Hub[emulator.Event] it implements
// emulator.Observer. It never blocks: a subscriber whose live backlog
// exceeds its window has its cursor pushed forward (oldest pending
// events lost, drop counters incremented) rather than waited on, and
// the wake signal is a non-blocking send.
func (h *Hub[T]) Event(e T) {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	if h.inner != nil {
		h.inner.Event(e)
	}
	h.ring[h.next%int64(len(h.ring))] = Seq[T]{Seq: h.next, Event: e}
	h.next++
	for _, s := range h.subs {
		if d := h.next - s.window - s.cursor; d > 0 {
			s.cursor += d
			s.dropped.Add(d)
			h.dropped.Add(d)
		}
		select {
		case s.sig <- struct{}{}:
		default: // reader already has a wake-up pending
		}
	}
	h.mu.Unlock()
}

// Subscribe registers a reader whose cursor starts at the first
// retained event with Seq > after (clamped to the oldest retained
// event; the caller detects the clamp as a seq jump). An after at or
// past the newest emitted Seq is caught up: the reader replays nothing
// and starts at the next event the publisher emits. Replay and live
// feed are contiguous — the cursor advances through the same ring the
// publisher appends to, under the same lock, so no event between
// "history" and "live" can be missed.
//
// queue bounds the live backlog (1024 when <= 0): a reader more than
// queue events behind the publisher starts losing the oldest pending
// events. Already-retained history being replayed after the run is
// never clipped by the window — only a live publisher enforces it.
// Subscribing to a closed hub still replays the ring; Next reports
// open == false once it is drained.
func (h *Hub[T]) Subscribe(after int64, queue int) *Sub[T] {
	if queue <= 0 {
		queue = 1024
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	cur := h.next // after is past the newest event: caught up
	if after < h.next {
		cur = max(after+1, h.next-int64(len(h.ring)), 0)
	}
	s := &Sub[T]{h: h, cursor: cur, window: int64(queue), limit: -1, sig: make(chan struct{}, 1)}
	if !h.closed {
		h.subs = append(h.subs, s)
	}
	s.sig <- struct{}{} // initial wake: drain the backlog (or observe the close)
	return s
}

// Unsubscribe detaches a subscriber: no further events are delivered
// past the detach point (Next drains what was already pending, then
// reports open == false). It is a no-op for subscribers already
// detached (or for a closed hub, where Next is bounded by the close
// instead).
func (h *Hub[T]) Unsubscribe(s *Sub[T]) {
	h.mu.Lock()
	for i, sub := range h.subs {
		if sub == s {
			h.subs = append(h.subs[:i], h.subs[i+1:]...)
			s.limit = h.next
			select {
			case s.sig <- struct{}{}:
			default:
			}
			break
		}
	}
	h.mu.Unlock()
}

// Close marks the run finished: subscribers are woken one last time
// (readers still drain whatever is pending; Next then reports
// open == false), and later events are ignored. The ring stays
// readable — Subscribe keeps working for replay. Close is idempotent.
func (h *Hub[T]) Close() {
	h.mu.Lock()
	if !h.closed {
		h.closed = true
		for _, s := range h.subs {
			select {
			case s.sig <- struct{}{}:
			default:
			}
		}
		h.subs = nil
	}
	h.mu.Unlock()
}

// Emitted is the number of events the hub has seen (and therefore the
// Seq the next event would get).
func (h *Hub[T]) Emitted() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.next
}

// OldestRetained is the lowest Seq still in the ring (0 until the ring
// wraps). Meaningless before any event was emitted.
func (h *Hub[T]) OldestRetained() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	lo := h.next - int64(len(h.ring))
	if lo < 0 {
		lo = 0
	}
	return lo
}

// Retained is the number of events currently replayable from the ring.
func (h *Hub[T]) Retained() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.next < int64(len(h.ring)) {
		return h.next
	}
	return int64(len(h.ring))
}

// Dropped is the total number of events lost across all subscribers.
func (h *Hub[T]) Dropped() int64 { return h.dropped.Load() }

// Subscribers is the live subscriber count.
func (h *Hub[T]) Subscribers() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.subs)
}

// Sync runs f under the hub's lock, excluding Event. Use it to read the
// inner observer's state (e.g. Collector ledgers) while the run is
// live. f must not call back into the hub.
func (h *Hub[T]) Sync(f func()) {
	h.mu.Lock()
	defer h.mu.Unlock()
	f()
}
