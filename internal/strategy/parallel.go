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
	// parMinBlockRows is the smallest row block an in-RAM pass hands a
	// worker. Below this the per-block dispatch overhead (atomic fetch,
	// callback) rivals the accumulate work itself.
	parMinBlockRows = 2048
	// parBlocksPerWorker oversubscribes blocks to workers so the atomic
	// block dispenser can rebalance when one core is slower (a noisy
	// neighbour, the next tile's expansion) and a static split would leave
	// the others idle.
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

// tilePass is one accumulateTile call's Pass callback and the per-worker
// partial answers it adds into: worker 0 adds straight into the tile's
// answers, every other worker into a pooled tile×lanes partial taken the
// first time it is handed a chunk and merged lane-wise mod 2^32 once the
// pass returns — bit-identical to the sequential pass by linearity (see the
// file comment). It is pooled with its callback bound, so a pass allocates
// nothing of its own.
type tilePass struct {
	lo, lanes       int
	leaves, answers [][]uint32
	locals          []*walkScratch // worker w's partial; [0] stays nil
	fn              func(int, Chunk) error
}

var tilePassPool = sync.Pool{New: func() any {
	tp := new(tilePass)
	tp.fn = tp.chunk
	return tp
}}

func (tp *tilePass) chunk(w int, c Chunk) error {
	dst := tp.answers
	if w > 0 {
		if tp.locals[w] == nil {
			tp.locals[w] = getWalkScratch()
			tp.locals[w].growLocal(len(tp.leaves), tp.lanes)
		}
		dst = tp.locals[w].localHdr
	}
	accumulateChunk(c.Data, tp.lanes, c.Row, tp.lo, tp.leaves, dst)
	return nil
}

// accumulateTile is the executed form of the paper's query-tiled matmul
// (§3.1, §3.2.4): ONE streaming pass over rows [lo, hi) accumulates every
// tile query's dot product at once. Each row is read from memory once and
// reused leaves-wide from cache, instead of the table being streamed once
// per query — the traffic model.MemBound prices. leaves[q][j-lo]
// is query q's leaf share for row j; answers[q] accumulates lane-wise mod
// 2^32 (order-independent, so tiled output is bit-identical to the scalar
// per-query pass). The table arrives as a TableView and is consumed through
// its Pass on up to `workers` goroutines, in whatever order and chunking
// the backing picks — the asm tiers cut their own row blocks within a
// chunk, so only the last block of each is short. The only error sources
// are the view's (a paged backing's read failing mid-pass); on error the
// caller discards answers.
func accumulateTile(v TableView, lo, hi int, leaves [][]uint32, answers [][]uint32, workers int) error {
	workers = parWorkers(workers)
	// Contiguous fast path: one kernel call over the zero-copy row slice
	// and no pooled pass state, which the engine's allocation-free
	// steady-state Answer (one core under AllocsPerRun) counts on.
	if workers == 1 {
		if data, err := v.RowRange(lo, hi); err == nil {
			accumulateChunk(data, v.Lanes(), lo, lo, leaves, answers)
			return nil
		}
	}
	tp := tilePassPool.Get().(*tilePass)
	tp.lo, tp.lanes, tp.leaves, tp.answers = lo, v.Lanes(), leaves, answers
	if cap(tp.locals) < workers {
		tp.locals = make([]*walkScratch, workers)
	}
	tp.locals = tp.locals[:workers]
	err := v.Pass(lo, hi, workers, tp.fn)
	for w, sc := range tp.locals {
		if sc == nil {
			continue
		}
		for q, aq := range answers {
			for l, x := range sc.localHdr[q] {
				aq[l] += x
			}
		}
		sc.release()
		tp.locals[w] = nil
	}
	tp.leaves, tp.answers = nil, nil
	tilePassPool.Put(tp)
	return err
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

// BlockPass is the in-RAM TableView.Pass over a row-major table's data:
// rows [lo, hi) cut into row blocks (parBlockSize) that up to `workers`
// goroutines take from an atomic dispenser, one chunk per block. One
// worker — or a range too short to split — gets the range as one maximal
// chunk on the caller's goroutine. The range is the caller's to validate.
func BlockPass(data []uint32, lanes, lo, hi, workers int, fn func(w int, c Chunk) error) error {
	blockRows := parBlockSize(hi-lo, workers)
	nBlocks := (hi - lo + blockRows - 1) / blockRows
	if workers = min(workers, nBlocks); workers <= 1 {
		if lo == hi {
			return nil
		}
		return fn(0, Chunk{Row: lo, Data: data[lo*lanes : hi*lanes]})
	}
	var (
		next   atomic.Int64
		failed atomic.Bool
	)
	errs := make([]error, workers)
	ParallelFor(workers, workers, func(w int) {
		for !failed.Load() {
			b := int(next.Add(1)) - 1
			if b >= nBlocks {
				return
			}
			blo := lo + b*blockRows
			bhi := min(blo+blockRows, hi)
			if errs[w] = fn(w, Chunk{Row: blo, Data: data[blo*lanes : bhi*lanes]}); errs[w] != nil {
				failed.Store(true)
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ParallelFor runs fn(i) for every i in [0, n) on at most workers
// goroutines, which take contiguous runs of indices from a shared counter
// (a few runs per worker, for balance), and returns once every call has.
// A budget of one runs inline, on the caller's goroutine. fn must be safe
// to call concurrently for distinct i. The tile loop fans out on it, and
// so do batchpir's bins and the seed baseline's queries.
func ParallelFor(n, workers int, fn func(i int)) {
	if workers = min(workers, n); workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	run := (n + workers*4 - 1) / (workers * 4)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				lo := int(next.Add(int64(run))) - run
				if lo >= n {
					return
				}
				for i := lo; i < min(lo+run, n); i++ {
					fn(i)
				}
			}
		}()
	}
	wg.Wait()
}
