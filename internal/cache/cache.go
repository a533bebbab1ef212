// Package cache is a content-addressed, size-bounded LRU cache with
// singleflight deduplication of in-flight computations.  It backs the
// compile service's program cache: values are keyed by the canonical
// fingerprint of their inputs (see passes.FingerprintKey), identical
// concurrent misses run the computation once and share the result, and
// the cache tracks hit/miss/evict/coalesce counters for /v1/stats.
//
// The package is deliberately generic (Cache[V]) so it stores compiled
// programs without importing the root dhpf package.
package cache

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
)

// ErrPanic is wrapped by the error GetOrCompute returns when compute
// (or the backing tier) panicked.
var ErrPanic = errors.New("cache: computation panicked")

// Key builds a composite cache key from parts.  Each part is
// length-prefixed so distinct part lists can never collide by
// concatenation ("a","bc" vs "ab","c") — callers compose fingerprints
// with qualifiers (scheme, machine, tier) without inventing ad-hoc
// separators.
func Key(parts ...string) string {
	var b strings.Builder
	for _, p := range parts {
		b.WriteString(strconv.Itoa(len(p)))
		b.WriteByte(':')
		b.WriteString(p)
		b.WriteByte(0)
	}
	return b.String()
}

// Stats is a point-in-time snapshot of the cache's counters.
type Stats struct {
	Hits   int64 `json:"hits"`   // lookups served from a stored entry
	Misses int64 `json:"misses"` // lookups that started a computation
	// InflightCoalesced counts lookups that found an identical
	// computation already running and waited for its result instead of
	// starting their own — the singleflight dedup counter.
	InflightCoalesced int64 `json:"inflight_coalesced"`
	// BackingHits counts misses that were served by the durable backing
	// tier instead of running the computation (restart-warm hits).
	BackingHits int64 `json:"backing_hits,omitempty"`
	Evictions   int64 `json:"evictions"`
	Entries     int   `json:"entries"`
	SizeBytes   int64 `json:"size_bytes"`
	MaxBytes    int64 `json:"max_bytes"`
}

// Backing is an optional durable second tier under the in-memory cache
// (read-through on miss, write-through on compute).  Load returns the
// value and the size to charge against the in-memory budget; a false
// return falls through to the computation.  Both methods run inside the
// singleflight flight, so concurrent misses on one key consult the
// backing once, and Store completes before any waiter observes the
// value — a process crash after GetOrCompute returns can never lose a
// value the caller already saw.  Implementations must be safe for
// concurrent use and must treat undecodable or version-mismatched
// stored bytes as a miss, never an error.
type Backing[V any] interface {
	Load(key string) (V, int64, bool)
	Store(key string, val V, size int64)
}

// entry is one stored value with its charged size.
type entry[V any] struct {
	key  string
	val  V
	size int64
}

// flight is one in-progress computation that waiters share.  The
// computation runs under its own context, cancelled only when every
// waiter has given up — one caller's timeout must not abort a compile
// that other callers are still waiting for.
type flight[V any] struct {
	done    chan struct{} // closed when val/err are final
	val     V
	err     error
	cached  bool // value came from the backing tier, not compute
	waiters int
	cancel  context.CancelFunc
}

// Cache is a size-bounded LRU keyed by content-address strings.
// All methods are safe for concurrent use.
type Cache[V any] struct {
	mu       sync.Mutex
	max      int64
	size     int64
	ll       *list.List // front = most recently used; values are *entry[V]
	items    map[string]*list.Element
	inflight map[string]*flight[V]
	backing  Backing[V]
	stats    Stats
}

// New returns a cache bounded at maxBytes of charged entry size.  An
// entry's size is whatever its computation reports (use 1 per entry to
// bound by count); entries larger than the whole budget are evicted
// immediately after insertion, so they still coalesce concurrent
// requests but are never retained.
func New[V any](maxBytes int64) *Cache[V] {
	if maxBytes <= 0 {
		maxBytes = 1
	}
	return &Cache[V]{
		max:      maxBytes,
		ll:       list.New(),
		items:    map[string]*list.Element{},
		inflight: map[string]*flight[V]{},
	}
}

// SetBacking installs a durable backing tier.  Call before the cache is
// shared; subsequent misses read through it and computed values are
// written through to it.
func (c *Cache[V]) SetBacking(b Backing[V]) {
	c.mu.Lock()
	c.backing = b
	c.mu.Unlock()
}

// Get returns the stored value for key, if present, and marks it
// recently used.  It does not wait for in-flight computations and does
// not consult the backing tier.
func (c *Cache[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.stats.Hits++
		return el.Value.(*entry[V]).val, true
	}
	var zero V
	return zero, false
}

// GetOrCompute returns the cached value for key, or computes it.  The
// first caller to miss runs compute; concurrent callers with the same
// key wait for that result (counted as InflightCoalesced).  compute
// receives a context that stays live while any caller is still waiting
// — if ctx is cancelled, this caller unblocks with ctx.Err(), and only
// when the last waiter leaves is the computation itself cancelled.
// compute returns the value and the size to charge against the cache
// budget; errors are returned to every waiter and never cached.  A
// compute that panics fails the same way, with an error wrapping
// ErrPanic.
//
// The second result reports whether the value came from the cache (a
// stored entry, a coalesced flight, or the durable backing tier) rather
// than this caller's own computation.
func (c *Cache[V]) GetOrCompute(ctx context.Context, key string,
	compute func(ctx context.Context) (V, int64, error)) (V, bool, error) {

	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.stats.Hits++
		v := el.Value.(*entry[V]).val
		c.mu.Unlock()
		return v, true, nil
	}
	if f, ok := c.inflight[key]; ok {
		f.waiters++
		c.stats.InflightCoalesced++
		c.mu.Unlock()
		return c.wait(ctx, key, f, true)
	}
	c.stats.Misses++
	fctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	f := &flight[V]{done: make(chan struct{}), waiters: 1, cancel: cancel}
	c.inflight[key] = f
	backing := c.backing
	c.mu.Unlock()

	go func() {
		var (
			val  V
			size int64
			err  error
		)
		fromBacking := false
		defer func() {
			// The flight has no caller to unwind into: a panic here would
			// kill the process, so it fails this key's waiters instead.
			if p := recover(); p != nil {
				var zero V
				val, err, fromBacking = zero, fmt.Errorf("%w: %v", ErrPanic, p), false
			}
			c.mu.Lock()
			f.val, f.err, f.cached = val, err, fromBacking
			if fromBacking {
				c.stats.BackingHits++
			}
			delete(c.inflight, key)
			if err == nil {
				c.insertLocked(key, val, size)
			}
			c.mu.Unlock()
			cancel()
			close(f.done)
		}()
		if backing != nil {
			val, size, fromBacking = backing.Load(key)
		}
		if !fromBacking {
			val, size, err = compute(fctx)
			if err == nil && backing != nil {
				// Write through before waiters observe the value, so a
				// restart after GetOrCompute returns always replays it.
				backing.Store(key, val, size)
			}
		}
	}()
	return c.wait(ctx, key, f, false)
}

// wait blocks until the flight completes or ctx is cancelled.  Leaving
// early decrements the waiter count; the last waiter to leave cancels
// the computation (it has no audience left).
func (c *Cache[V]) wait(ctx context.Context, key string, f *flight[V], coalesced bool) (V, bool, error) {
	select {
	case <-f.done:
		return f.val, coalesced || f.cached, f.err
	case <-ctx.Done():
		c.mu.Lock()
		f.waiters--
		abandon := f.waiters == 0 && c.inflight[key] == f
		c.mu.Unlock()
		if abandon {
			f.cancel()
		}
		var zero V
		return zero, false, ctx.Err()
	}
}

// insertLocked stores a computed entry and evicts LRU entries until the
// budget holds again.  Callers hold c.mu.
func (c *Cache[V]) insertLocked(key string, val V, size int64) {
	if size < 1 {
		size = 1
	}
	if el, ok := c.items[key]; ok { // raced insert of the same key
		c.size -= el.Value.(*entry[V]).size
		c.ll.Remove(el)
		delete(c.items, key)
	}
	c.items[key] = c.ll.PushFront(&entry[V]{key: key, val: val, size: size})
	c.size += size
	for c.size > c.max {
		back := c.ll.Back()
		if back == nil {
			break
		}
		e := back.Value.(*entry[V])
		c.ll.Remove(back)
		delete(c.items, e.key)
		c.size -= e.size
		c.stats.Evictions++
	}
}

// Len returns the number of stored entries.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Inflight returns how many computations are running: flights not yet
// ended, whether or not anyone still waits for them.
func (c *Cache[V]) Inflight() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.inflight)
}

// Stats returns a snapshot of the counters.
func (c *Cache[V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = c.ll.Len()
	s.SizeBytes = c.size
	s.MaxBytes = c.max
	return s
}
