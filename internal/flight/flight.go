// Package flight is the single-flight, least-recently-used cache that
// schematicd and the paper harness share work through. The first caller
// of a key leads: it computes the value and completes the key's entry.
// A caller that finds the entry in flight follows: it waits for the
// leader within its own context. A caller that finds it completed reads
// it. Past a fixed capacity the least recently used entry is dropped.
package flight

import (
	"container/list"
	"context"
	"sync"
)

// Stats is a snapshot of a cache's counters. Hits are lookups answered
// from a completed entry, Coalesced are followers that attached to an
// in-flight leader, Misses are leaders that had to compute, Evictions
// count LRU drops.
type Stats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Coalesced int64 `json:"coalesced"`
	Evictions int64 `json:"evictions"`
}

// Entry is one key's slot. The leader sets val and err, then closes
// done. An entry evicted while in flight stays valid for the followers
// already attached; it just stops being findable for new callers.
type Entry[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Completed reports whether the leader has completed the entry.
func (e *Entry[V]) Completed() bool {
	select {
	case <-e.done:
		return true
	default:
		return false
	}
}

// Wait is the one place a follower waits for its leader. It returns the
// leader's value and error once the entry completes, or ctx's error if
// ctx ends first.
func (e *Entry[V]) Wait(ctx context.Context) (V, error) {
	select {
	case <-e.done:
		return e.val, e.err
	case <-ctx.Done():
		var zero V
		return zero, ctx.Err()
	}
}

// Cache maps keys to entries and holds at most its capacity of them,
// completed and in flight together.
type Cache[K comparable, V any] struct {
	mu    sync.Mutex
	cap   int
	index map[K]*list.Element
	ll    *list.List // front = most recent; values are *item[K, V]
	stats Stats
}

type item[K comparable, V any] struct {
	key   K
	entry *Entry[V]
}

// New returns an empty cache that holds at most capacity entries.
func New[K comparable, V any](capacity int) *Cache[K, V] {
	return &Cache[K, V]{cap: capacity, index: make(map[K]*list.Element), ll: list.New()}
}

// Begin looks the key up. leader=true means the caller must compute the
// value and finish with Complete; leader=false means someone else has
// completed or will complete the entry, and the caller reads it with
// Wait.
func (c *Cache[K, V]) Begin(key K) (e *Entry[V], leader bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.index[key]; ok {
		c.ll.MoveToFront(el)
		e = el.Value.(*item[K, V]).entry
		if e.Completed() {
			c.stats.Hits++
		} else {
			c.stats.Coalesced++
		}
		return e, false
	}
	c.stats.Misses++
	e = &Entry[V]{done: make(chan struct{})}
	c.index[key] = c.ll.PushFront(&item[K, V]{key, e})
	for c.ll.Len() > c.cap {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.index, back.Value.(*item[K, V]).key)
		c.stats.Evictions++
	}
	return e, true
}

// Complete publishes the leader's outcome to every follower of e. An
// uncacheable outcome, one that says nothing about the key (a cancelled
// job, say), reaches the followers already attached but leaves the
// index, so the next caller of the key computes afresh.
func (c *Cache[K, V]) Complete(key K, e *Entry[V], val V, err error, cacheable bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e.val, e.err = val, err
	close(e.done)
	// The key may since have been evicted, or even begun again.
	if el, ok := c.index[key]; ok && !cacheable && el.Value.(*item[K, V]).entry == e {
		c.ll.Remove(el)
		delete(c.index, key)
	}
}

// Do answers key through the cache: the leader runs compute and caches
// whatever it returns, errors included, and a follower waits within ctx
// (see Entry.Wait). compute takes no context, so its outcome always
// describes the key.
func (c *Cache[K, V]) Do(ctx context.Context, key K, compute func() (V, error)) (V, error) {
	e, leader := c.Begin(key)
	if !leader {
		return e.Wait(ctx)
	}
	v, err := compute()
	c.Complete(key, e, v, err, true)
	return v, err
}

// Stats snapshots the counters.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Len reports the number of indexed entries.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
