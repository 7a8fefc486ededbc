// Package parallel provides the bounded, deterministic worker pool of
// the experiment engine. The contract that makes parallel runs
// bit-identical to serial ones lives here: fn(i) must only write state
// owned by index i, and anything ordering-sensitive stays with the
// caller.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// workerCount resolves the worker knob: 0 (the zero value) and negative
// both mean GOMAXPROCS — parallelism is the default, and 1 is the
// explicit serial opt-out. The count is clamped to the number of items
// so surplus workers are never spawned.
func workerCount(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	return workers
}

// ForErr runs fn(i) for i in [0, n) on at most workers goroutines
// (0 or negative = all CPUs, 1 = serial) and returns the error of the
// lowest failing index, matching the serial loop's error precedence (an
// index below the first failure always ran before it was dispatched, so
// its error is always collected). After any failure no new indices are
// dispatched; already-running calls finish.
func ForErr(workers, n int, fn func(i int) error) error {
	if workerCount(workers, n) <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var failed atomic.Bool
	forPool(workerCount(workers, n), n, func(i int) bool {
		if err := fn(i); err != nil {
			errs[i] = err
			failed.Store(true)
		}
		return !failed.Load()
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// forPool feeds [0, n) to workers goroutines in index order.
// fn returning false stops the dispatch of further indices.
func forPool(workers, n int, fn func(i int) bool) {
	var wg sync.WaitGroup
	var stopped atomic.Bool
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if !fn(i) {
					stopped.Store(true)
				}
			}
		}()
	}
	for i := 0; i < n && !stopped.Load(); i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}
