package gpu

import (
	"runtime"
	"sync"
)

// ParallelFor executes fn(i) for i in [0, n) across the host's cores. It is
// the executor the strategies use so their DPF expansions really run in
// parallel (the modeled device time is computed separately from counters).
// fn must be safe for concurrent invocation on distinct i.
func ParallelFor(n int, fn func(i int)) {
	ParallelForN(n, runtime.GOMAXPROCS(0), fn)
}

// ParallelForN is ParallelFor on at most workers goroutines — the form for
// a caller that owns a core budget of its own.
func ParallelForN(n, workers int, fn func(i int)) {
	parallelChunks(n, 0, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}

// ParallelForChunked splits [0, n) into contiguous chunks and runs
// fn(lo, hi) per chunk on a bounded worker pool. chunk <= 0 picks a chunk
// size that gives each worker a few chunks for load balance.
func ParallelForChunked(n, chunk int, fn func(lo, hi int)) {
	parallelChunks(n, chunk, runtime.GOMAXPROCS(0), fn)
}

// parallelChunks is ParallelForChunked on at most workers goroutines.
func parallelChunks(n, chunk, workers int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	workers = max(1, min(workers, n))
	if chunk <= 0 {
		chunk = (n + workers*4 - 1) / (workers * 4)
		if chunk < 1 {
			chunk = 1
		}
	}
	if workers == 1 || n <= chunk {
		fn(0, n)
		return
	}
	var next int
	var mu sync.Mutex
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				lo := next
				next += chunk
				mu.Unlock()
				if lo >= n {
					return
				}
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				fn(lo, hi)
			}
		}()
	}
	wg.Wait()
}
