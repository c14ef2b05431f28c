package strategy

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file adds intra-tile table-stream parallelism to the tiled hot path.
// A tile's accumulate pass is a sum of independent row-range dot products:
// answers[q] = Σ_j leaves[q][j]·row[j] with every add mod 2^32, so any
// partition of [lo, hi) into row blocks, accumulated into per-worker
// partials and merged lane-wise, produces bit-identical answers regardless
// of block size, worker count, or merge order (addition mod 2^32 is
// commutative and associative). That linearity is the same one
// engine.Cluster's shard merge and the multi-GPU partial-sum reduction rely
// on — here it is applied inside one streaming pass, so one replica uses
// every memory channel the host has.

const (
	// parMinBlockRows is the smallest row block a worker is handed. Below
	// this the per-block dispatch overhead (atomic fetch, chunk-iterator
	// setup) rivals the accumulate work itself, and blocks stop spanning
	// whole backing pages on the paged path.
	parMinBlockRows = 2048
	// parBlocksPerWorker oversubscribes blocks to workers so the atomic
	// block dispenser can rebalance: on a paged view some blocks hit the
	// cache and some wait on the file, and a static split would leave the
	// lucky workers idle.
	parBlocksPerWorker = 4
)

// parWorkers clamps a configured worker budget to what the runtime can
// actually run in parallel. The GOMAXPROCS gate keeps single-core hosts —
// and AllocsPerRun, which pins GOMAXPROCS to 1 — on the allocation-free
// sequential path, where goroutine fan-out could only add overhead.
func parWorkers(cfg int) int {
	w := cfg
	if w < 1 {
		w = 1
	}
	if p := runtime.GOMAXPROCS(0); w > p {
		w = p
	}
	return w
}

// accumulateTilePar is accumulateTile with the row range split into blocks
// fanned across up to `workers` goroutines. Each worker streams its blocks
// through the same accumulateChunk tier dispatch into a pooled
// per-worker tile×lanes partial, and the partials merge lane-wise mod 2^32
// into answers — bit-identical to the sequential pass by linearity (see
// the file comment). Ranges too narrow to split, and effective worker
// counts of 1, take the sequential path unchanged.
func accumulateTilePar(v TableView, lo, hi int, leaves [][]uint32, answers [][]uint32, workers int) error {
	workers = parWorkers(workers)
	// Every variable the worker closure captures below (blockRows, nBlocks,
	// lanes, and the parameters) is assigned exactly once: a captured
	// variable that is also reassigned gets heap-boxed at its declaration —
	// on every call, including the sequential fallback the engine's
	// allocation-free steady state runs through.
	blockRows := parBlockSize(hi-lo, workers)
	nBlocks := (hi - lo + blockRows - 1) / blockRows
	if workers > nBlocks {
		workers = nBlocks
	}
	if workers <= 1 {
		return accumulateTile(v, lo, hi, leaves, answers)
	}
	lanes := v.Lanes()

	var (
		next     atomic.Int64
		failed   atomic.Bool
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := getWalkScratch()
			local := sc.growLocal(len(leaves), lanes)
			for {
				b := int(next.Add(1)) - 1
				if b >= nBlocks || failed.Load() {
					break
				}
				blo := lo + b*blockRows
				bhi := blo + blockRows
				if bhi > hi {
					bhi = hi
				}
				if err := accumulateBlock(v, blo, bhi, lo, lanes, leaves, local); err != nil {
					failed.Store(true)
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					break
				}
			}
			// Merge even a failed worker's partial: on error the caller
			// discards answers, and an unconditional merge keeps the
			// success path branch-free.
			mu.Lock()
			for q := range answers {
				aq := answers[q]
				for l, x := range local[q] {
					aq[l] += x
				}
			}
			mu.Unlock()
			sc.release()
		}()
	}
	wg.Wait()
	return firstErr
}

// parBlockSize picks the row-block width for a range of `rows` rows split
// across `workers`: about parBlocksPerWorker blocks per worker, floored at
// parMinBlockRows. A budget of 1 (or an empty range) returns one covering
// block, which collapses the caller to the sequential path.
func parBlockSize(rows, workers int) int {
	if workers <= 1 || rows <= 0 {
		return rows + 1
	}
	b := (rows + workers*parBlocksPerWorker - 1) / (workers * parBlocksPerWorker)
	if b < parMinBlockRows {
		b = parMinBlockRows
	}
	return b
}

// accumulateBlock streams one row block [blo, bhi) of a tile pass whose
// leaves are indexed from leafLo, through the same contiguous-fast-path /
// chunk-iterator dispatch as accumulateTile.
func accumulateBlock(v TableView, blo, bhi, leafLo, lanes int, leaves [][]uint32, local [][]uint32) error {
	if data, err := v.RowRange(blo, bhi); err == nil {
		accumulateChunk(data, lanes, blo, leafLo, leaves, local)
		return nil
	}
	return v.Chunks(blo, bhi, func(c Chunk) error {
		accumulateChunk(c.Data, lanes, c.Row, leafLo, leaves, local)
		return nil
	})
}
