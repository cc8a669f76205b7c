package vaq

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
)

// SearchBatch answers many queries, distributing them across worker
// goroutines (one Searcher each, taken from and returned to the index's
// searcher pool). Results are returned in query order. workers <= 0 uses
// runtime.GOMAXPROCS(0).
//
// A k < 1 is rejected up front with a nil result slice. Per-query faults
// (a query with the wrong dimensionality, execution errors) do not abort
// the batch: every other query still runs, its result is kept, and its
// telemetry is recorded; each failed query is counted once in the metrics
// registry's error counter, its slot is nil in the returned slice, and the
// per-query errors come back joined (errors.Join) with their query indices.
func (ix *Index) SearchBatch(queries [][]float32, k int, opt SearchOptions, workers int) ([][]Result, error) {
	return searchBatch(queries, k, workers, func() (func([]float32) ([]Result, error), func()) {
		s := &Searcher{inner: ix.inner.AcquireSearcher()}
		search := func(q []float32) ([]Result, error) { return s.Search(q, k, opt) }
		return search, func() { ix.inner.ReleaseSearcher(s.inner) }
	})
}

// searchBatch is the worker pool behind both SearchBatch methods. Each of
// the workers goroutines calls newWorker once for its search function and
// the release function it runs on exit (nil = nothing to release).
func searchBatch(queries [][]float32, k, workers int, newWorker func() (search func([]float32) ([]Result, error), release func())) ([][]Result, error) {
	if k < 1 {
		return nil, fmt.Errorf("vaq: k must be >= 1, got %d", k)
	}
	n := len(queries)
	out := make([][]Result, n)
	if n == 0 {
		return out, nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	qErrs := make([]error, n)
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			search, release := newWorker()
			if release != nil {
				defer release()
			}
			for qi := range next {
				res, err := search(queries[qi])
				if err != nil {
					qErrs[qi] = fmt.Errorf("vaq: query %d: %w", qi, err)
					continue
				}
				out[qi] = res
			}
		}()
	}
	for qi := 0; qi < n; qi++ {
		next <- qi
	}
	close(next)
	wg.Wait()
	return out, errors.Join(qErrs...)
}
