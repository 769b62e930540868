// Package par holds the one fan-out of the batch paths and the one cap on
// its worker count: the HTTP API forwards a request's "workers" to
// detection and to discovery, and both run their tasks through Each.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers bounds a requested worker count for a fan-out of tasks
// independent tasks: min(n, 8 × GOMAXPROCS, tasks). Beyond the core count
// extra workers only add scheduling overhead, and beyond the task count
// they do nothing at all. A non-positive n comes back as is: callers
// resolve their own defaults first.
func Workers(n, tasks int) int {
	return min(n, 8*runtime.GOMAXPROCS(0), tasks)
}

// Each runs fn(0..n-1) on Workers(workers, n) goroutines, inline when that
// is at most one, and returns the first error a task returns. Once ctx is
// done no further task starts, and the context's error is returned. fn
// must be safe to run concurrently for distinct indices.
func Each(ctx context.Context, workers, n int, fn func(i int) error) error {
	workers = Workers(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				err := ctx.Err()
				if err == nil {
					err = fn(i)
				}
				if err != nil {
					errOnce.Do(func() { firstErr = err })
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}
