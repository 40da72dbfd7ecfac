package experiments

import (
	"runtime"
	"sync"
)

// This file implements the parallel sweep engine. Every figure of the
// evaluation is a sweep of independent simulator runs — rate points,
// parallelism variants, noise-seeded repetitions — and each run is a
// deterministic function of its options, so the sweeps fan out across
// a bounded worker pool without changing a single output bit: tasks
// are dispatched in index order, each task derives its noise seed from
// its index alone, and results are collected into an index-addressed
// slice, so the assembled tables are byte-identical to the sequential
// path regardless of scheduling.

// workers resolves the pool size: Parallelism when positive, otherwise
// GOMAXPROCS.
func (o SweepOptions) workers() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// RunPoints evaluates fn for every index 0..n-1 on a bounded worker
// pool and returns the results in index order. The pool size is the
// sweep's Parallelism (default GOMAXPROCS); with one worker (or n ≤ 1)
// it degenerates to a plain sequential loop.
//
// Error semantics match the sequential loop exactly: tasks are claimed
// in index order, a failure stops further dispatch, in-flight workers
// drain, and the error returned is the one from the lowest failing
// index among the dispatched prefix — which is the same error the
// sequential loop would have stopped at.
//
// fn must be safe for concurrent invocation with distinct indices and
// must derive any randomness deterministically from its index (see
// RepeatSeed); every experiment task satisfies both because each index
// builds its own Simulation.
func RunPoints[T any](sweep SweepOptions, n int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	workers := sweep.workers()
	if workers > n {
		workers = n
	}
	out := make([]T, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			v, err := fn(i)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}
	var (
		mu       sync.Mutex
		next     int
		firstErr error
		errIdx   = n
	)
	claim := func() int {
		mu.Lock()
		defer mu.Unlock()
		if firstErr != nil || next >= n {
			return -1
		}
		i := next
		next++
		return i
	}
	fail := func(i int, err error) {
		mu.Lock()
		defer mu.Unlock()
		if firstErr == nil || i < errIdx {
			firstErr, errIdx = err, i
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := claim()
				if i < 0 {
					return
				}
				v, err := fn(i)
				if err != nil {
					fail(i, err)
					return
				}
				out[i] = v
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// RepeatSeed is the deterministic noise seed of repetition r of a
// measured point. It depends on the repeat index alone, so a repeat
// produces the same simulation whether it runs first on one worker or
// last on eight.
func RepeatSeed(r int) int64 { return int64(1000 + 7919*r) }

// rateGrid enumerates the sweep's rate points with the same repeated
// float addition the sequential loops used, so the grid values are
// bit-identical to the historical `for rate := from; rate <= to` loops.
func rateGrid(from, to, step float64) []float64 {
	var out []float64
	for r := from; r <= to; r += step {
		out = append(out, r)
	}
	return out
}
