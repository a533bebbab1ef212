package passes

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// forEach runs fn(i) for i in [0, n) on at most GOMAXPROCS goroutines and
// returns the first error (by index order, so failures are deterministic
// regardless of scheduling).  The caller is one of the workers and every
// worker claims the next index itself, so a helper that never gets a CPU
// leaves the caller to finish the work alone.  Each fn writes only its
// own slot of the caller's result slices, so no synchronization is
// needed beyond the pool itself.
func forEach(n int, fn func(i int) error) error {
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	work := func() {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			errs[i] = fn(i)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
