package cache

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func compute(v string, size int64) func(context.Context) (string, int64, error) {
	return func(context.Context) (string, int64, error) { return v, size, nil }
}

func TestHitMissEvict(t *testing.T) {
	c := New[string](100)
	ctx := context.Background()

	v, fromCache, err := c.GetOrCompute(ctx, "a", compute("va", 40))
	if err != nil || v != "va" || fromCache {
		t.Fatalf("first lookup: v=%q fromCache=%v err=%v", v, fromCache, err)
	}
	v, fromCache, err = c.GetOrCompute(ctx, "a", compute("XX", 40))
	if err != nil || v != "va" || !fromCache {
		t.Fatalf("second lookup should hit: v=%q fromCache=%v err=%v", v, fromCache, err)
	}

	// Fill past the budget: "a" (LRU) must be evicted.
	c.GetOrCompute(ctx, "b", compute("vb", 40))
	c.GetOrCompute(ctx, "c", compute("vc", 40))
	if _, ok := c.Get("a"); ok {
		t.Error("entry a should have been evicted")
	}
	if _, ok := c.Get("c"); !ok {
		t.Error("entry c should be resident")
	}

	s := c.Stats()
	if s.Hits < 2 || s.Misses != 3 || s.Evictions != 1 {
		t.Errorf("stats = %+v", s)
	}
	if s.SizeBytes > s.MaxBytes {
		t.Errorf("size %d exceeds budget %d", s.SizeBytes, s.MaxBytes)
	}
}

func TestRecencyOrder(t *testing.T) {
	c := New[string](100)
	ctx := context.Background()
	c.GetOrCompute(ctx, "a", compute("va", 40))
	c.GetOrCompute(ctx, "b", compute("vb", 40))
	c.Get("a") // touch: "b" becomes LRU
	c.GetOrCompute(ctx, "c", compute("vc", 40))
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted (LRU)")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("a was recently used and should survive")
	}
}

func TestOversizedEntryNotRetained(t *testing.T) {
	c := New[string](10)
	v, _, err := c.GetOrCompute(context.Background(), "big", compute("huge", 1000))
	if err != nil || v != "huge" {
		t.Fatalf("oversized compute: %q %v", v, err)
	}
	if c.Len() != 0 {
		t.Errorf("oversized entry retained: %d entries", c.Len())
	}
}

func TestErrorNotCached(t *testing.T) {
	c := New[string](100)
	boom := errors.New("boom")
	calls := 0
	f := func(context.Context) (string, int64, error) {
		calls++
		if calls == 1 {
			return "", 0, boom
		}
		return "ok", 1, nil
	}
	if _, _, err := c.GetOrCompute(context.Background(), "k", f); !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
	v, _, err := c.GetOrCompute(context.Background(), "k", f)
	if err != nil || v != "ok" {
		t.Fatalf("retry after error: %q %v", v, err)
	}
	if calls != 2 {
		t.Errorf("compute ran %d times", calls)
	}
}

// TestPanicFailsEveryWaiter: a computation that panics fails every
// coalesced waiter with ErrPanic instead of killing the process, caches
// nothing, and the next lookup of the key computes afresh.
func TestPanicFailsEveryWaiter(t *testing.T) {
	c := New[string](1 << 20)
	release := make(chan struct{})
	f := func(context.Context) (string, int64, error) {
		<-release
		panic("boom in the compiler")
	}
	const waiters = 8
	var wg sync.WaitGroup
	errs := make([]error, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = c.GetOrCompute(context.Background(), "k", f)
		}(i)
	}
	for s := c.Stats(); s.Misses+s.InflightCoalesced < waiters; s = c.Stats() {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, ErrPanic) || !strings.Contains(err.Error(), "boom in the compiler") {
			t.Errorf("waiter %d: want ErrPanic carrying the panic value, got %v", i, err)
		}
	}
	if c.Len() != 0 {
		t.Errorf("a panicked computation left %d entries", c.Len())
	}
	v, fromCache, err := c.GetOrCompute(context.Background(), "k", compute("ok", 1))
	if err != nil || v != "ok" || fromCache {
		t.Fatalf("lookup after the panic: v=%q fromCache=%v err=%v", v, fromCache, err)
	}
	if s := c.Stats(); s.Misses != 2 || s.InflightCoalesced != waiters-1 {
		t.Errorf("stats = %+v, want 2 misses and %d coalesced", s, waiters-1)
	}
}

// TestSingleflight: concurrent identical misses run the computation once
// and everyone shares the result; the coalesce counter records it.
func TestSingleflight(t *testing.T) {
	c := New[string](1 << 20)
	var runs atomic.Int64
	release := make(chan struct{})
	f := func(context.Context) (string, int64, error) {
		runs.Add(1)
		<-release
		return "shared", 1, nil
	}
	const waiters = 16
	var wg sync.WaitGroup
	errs := make([]error, waiters)
	vals := make([]string, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vals[i], _, errs[i] = c.GetOrCompute(context.Background(), "k", f)
		}(i)
	}
	// Wait until every goroutine is either the runner or coalesced.
	deadline := time.Now().Add(5 * time.Second)
	for {
		s := c.Stats()
		if s.Misses+s.InflightCoalesced >= waiters {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("waiters never registered: %+v", s)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	for i := range errs {
		if errs[i] != nil || vals[i] != "shared" {
			t.Fatalf("waiter %d: %q %v", i, vals[i], errs[i])
		}
	}
	if got := runs.Load(); got != 1 {
		t.Errorf("compute ran %d times, want 1", got)
	}
	s := c.Stats()
	if s.InflightCoalesced != waiters-1 {
		t.Errorf("coalesced = %d, want %d", s.InflightCoalesced, waiters-1)
	}
}

// TestWaiterCancel: a cancelled waiter unblocks immediately while the
// computation (still wanted by another waiter) proceeds and is cached.
func TestWaiterCancel(t *testing.T) {
	c := New[string](1 << 20)
	started := make(chan struct{})
	release := make(chan struct{})
	f := func(fctx context.Context) (string, int64, error) {
		close(started)
		select {
		case <-release:
			return "late", 1, nil
		case <-fctx.Done():
			return "", 0, fctx.Err()
		}
	}
	done := make(chan error, 1)
	go func() {
		_, _, err := c.GetOrCompute(context.Background(), "k", f)
		done <- err
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := c.GetOrCompute(ctx, "k", f); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter: %v", err)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("surviving waiter: %v", err)
	}
	if _, ok := c.Get("k"); !ok {
		t.Error("completed computation was not cached")
	}
}

// TestAllWaitersCancel: when the last waiter gives up, the computation's
// context is cancelled, and the aborted result is not cached.
func TestAllWaitersCancel(t *testing.T) {
	c := New[string](1 << 20)
	aborted := make(chan struct{})
	started := make(chan struct{})
	f := func(fctx context.Context) (string, int64, error) {
		close(started)
		<-fctx.Done()
		close(aborted)
		return "", 0, fctx.Err()
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() { <-started; cancel() }()
	if _, _, err := c.GetOrCompute(ctx, "k", f); !errors.Is(err, context.Canceled) {
		t.Fatalf("want canceled, got %v", err)
	}
	select {
	case <-aborted:
	case <-time.After(5 * time.Second):
		t.Fatal("computation context never cancelled")
	}
	// The failed flight must not poison the key.
	v, _, err := c.GetOrCompute(context.Background(), "k", compute("fresh", 1))
	if err != nil || v != "fresh" {
		t.Fatalf("key poisoned after abort: %q %v", v, err)
	}
}

// TestConcurrentMixed hammers the cache from many goroutines with a
// small budget, for the race detector.
func TestConcurrentMixed(t *testing.T) {
	c := New[int](64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("k%d", i%13)
				v, _, err := c.GetOrCompute(context.Background(), k,
					func(context.Context) (int, int64, error) { return i % 13, 16, nil })
				if err != nil {
					t.Error(err)
					return
				}
				if v != i%13 {
					t.Errorf("key %s: got %d", k, v)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if s := c.Stats(); s.SizeBytes > s.MaxBytes {
		t.Errorf("budget exceeded: %+v", s)
	}
}
