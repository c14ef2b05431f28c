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
	// neighbour, another pass) and a static split would leave the others
	// idle.
	parBlocksPerWorker = 4
)

// parWorkers clamps a configured worker budget to what the runtime can
// actually run in parallel. The GOMAXPROCS gate keeps single-core hosts —
// and AllocsPerRun, which pins GOMAXPROCS to 1 — on the allocation-free
// sequential path, where goroutine fan-out could only add overhead.
func parWorkers(cfg int) int { return min(max(cfg, 1), runtime.GOMAXPROCS(0)) }

// leafSource hands a tile pass its leaf shares: leaves returns, for rows
// [r0, end) with r0 < end <= r1, leaf vectors whose entry j-leafLo holds
// every tile query's share of table row j. sc is the calling worker's
// scratch (its own until the pass returns). tileRun expands them from its
// block frontier.
type leafSource interface {
	leaves(sc *walkScratch, r0, r1 int) (lv [][]uint32, leafLo, end int)
}

// tilePass is one runPass call's Pass callback and its per-worker scratch:
// worker 0 adds straight into the tile's answers, every other worker into
// a pooled tile×lanes partial taken the first time it is handed a chunk
// and merged lane-wise mod 2^32 once the pass returns — bit-identical to
// the sequential pass by linearity (see the file comment). It is pooled
// with its callback bound, so a pass allocates nothing of its own.
type tilePass struct {
	lanes   int
	src     leafSource
	answers [][]uint32
	locals  []*walkScratch // worker w's scratch: its leaf span and, for w > 0, partial answers
	fn      func(int, Chunk) error
}

var tilePassPool = sync.Pool{New: func() any {
	tp := new(tilePass)
	tp.fn = tp.chunk
	return tp
}}

func (tp *tilePass) chunk(w int, c Chunk) error {
	sc, dst := tp.locals[w], tp.answers
	if sc == nil {
		sc = getWalkScratch()
		tp.locals[w] = sc
		if w > 0 {
			sc.growLocal(len(tp.answers), tp.lanes)
		}
	}
	if w > 0 {
		dst = sc.localHdr
	}
	end := c.Row + len(c.Data)/tp.lanes
	for r0 := c.Row; r0 < end; {
		lv, leafLo, r1 := tp.src.leaves(sc, r0, end)
		accumulateChunk(c.Data[(r0-c.Row)*tp.lanes:(r1-c.Row)*tp.lanes], tp.lanes, r0, leafLo, lv, dst)
		r0 = r1
	}
	return nil
}

// runPass is the executed form of the paper's query-tiled matmul (§3.1,
// §3.2.4): ONE streaming pass over rows [lo, hi) accumulates every tile
// query's dot product at once. Each row is read from memory once and
// reused leaves-wide from cache, instead of the table being streamed once
// per query — the traffic model.MemBound prices. answers[q] accumulates
// lane-wise mod 2^32 (order-independent, so tiled output is bit-identical
// to the scalar per-query pass). The table arrives as a TableView and is
// consumed through its Pass on up to `workers` goroutines, in whatever
// order and chunking the backing picks; each worker takes its leaves from
// src span by span as it goes — the asm tiers cut their own row blocks
// within a span. The only error sources are the view's (a paged backing's
// read failing mid-pass); on error the caller discards answers.
func runPass(v TableView, lo, hi, workers int, src leafSource, answers [][]uint32) error {
	workers = parWorkers(workers)
	tp := tilePassPool.Get().(*tilePass)
	tp.lanes, tp.src, tp.answers = v.Lanes(), src, answers
	if cap(tp.locals) < workers {
		tp.locals = make([]*walkScratch, workers)
	}
	tp.locals = tp.locals[:workers]
	err := v.Pass(lo, hi, workers, tp.fn)
	for w, sc := range tp.locals {
		if sc == nil {
			continue
		}
		if w > 0 {
			for q, aq := range answers {
				for l, x := range sc.localHdr[q] {
					aq[l] += x
				}
			}
		}
		sc.release()
		tp.locals[w] = nil
	}
	tp.src, tp.answers = nil, nil
	tilePassPool.Put(tp)
	return err
}

// BlockPass is the in-RAM TableView.Pass over a row-major table's data:
// rows [lo, hi) cut at the multiples of a row-block width — about
// parBlocksPerWorker blocks per worker, at least parMinBlockRows, and whole
// expansion blocks (blockShift), so that no chunk splits one — that up to
// `workers` goroutines take from an atomic dispenser, one chunk per block.
// One worker — or a range inside one block — gets the range as one maximal
// chunk on the caller's goroutine. The range is the caller's to validate.
func BlockPass(data []uint32, lanes, lo, hi, workers int, fn func(w int, c Chunk) error) error {
	if lo == hi {
		return nil
	}
	d, s := max(1, workers)*parBlocksPerWorker, 1<<blockShift(lanes)
	size := (max(parMinBlockRows, (hi-lo+d-1)/d) + s - 1) &^ (s - 1)
	first := lo / size
	nBlocks := (hi-1)/size - first + 1
	if workers = min(workers, nBlocks); workers <= 1 {
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
			blo, bhi := max(lo, (first+b)*size), min((first+b+1)*size, hi)
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
// to call concurrently for distinct i. BlockPass fans out on it, and so do
// batchpir's bins and the seed baseline's queries.
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
