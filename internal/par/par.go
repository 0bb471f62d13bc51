// Package par is the one chunked parallel-for behind every fan-out in
// the engine: pivot-chunk instantiation, wide-level fills and the
// sharded read all split their work through Map, so the range
// arithmetic, the worker pool and the error rule live (and are tested)
// in one place.
package par

import (
	"sync"
	"sync/atomic"
)

// Map splits [0,n) into min(n,k) non-empty contiguous ranges whose
// sizes differ by at most one, and calls fn(i, lo, hi) for range i =
// [lo,hi). The calls run on at most `workers` goroutines, the caller's
// own included, which pull range indexes in ascending order. The
// results come back in range order.
//
// If any call fails, Map returns nil and the error of the
// lowest-indexed failing range. A range above a known failure is
// skipped; a range below one always runs, so which error wins does not
// depend on scheduling.
func Map[T any](n, k, workers int, fn func(i, lo, hi int) (T, error)) ([]T, error) {
	m := min(n, k)
	if m <= 0 {
		return nil, nil
	}
	workers = max(1, min(workers, m))
	out := make([]T, m)
	errs := make([]error, m)
	var next atomic.Int64
	// failed holds the index of some failing range (m while none has
	// failed). Any failing index is at least the lowest one, so skipping
	// only ranges above it never skips the range whose error wins.
	var failed atomic.Int64
	failed.Store(int64(m))
	run := func() {
		for {
			i := int(next.Add(1) - 1)
			if i >= m {
				return
			}
			if int64(i) > failed.Load() {
				continue
			}
			out[i], errs[i] = fn(i, i*n/m, (i+1)*n/m)
			if errs[i] != nil {
				failed.Store(int64(i))
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run()
		}()
	}
	run()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
