package strategy

import (
	"runtime"
	"sync"

	"gpudpf/internal/dpf"
	"gpudpf/internal/gpu"
)

// This file is the leaf-matrix tile pipeline: a tile of at most
// tileQueries queries' leaf shares (each key's memory-bounded descent,
// expandMemBound) multiplied against the table in one streaming pass
// (§3.1, §3.2.4). MemBoundTree.RunRangeInto hands runTiles a leaf range
// and keeps only its modeled counter accounting. How a tile uses the cores
// (expansion fanned out per query, the table stream fanned out per row
// block, the next tile's expansion overlapped with this tile's stream) is
// decided here and nowhere else.

// tileJob is what MemBoundTree asks of runTiles: expand every key's leaves
// over [lo, hi) — domain coordinates, so a full run may cover the padding
// past the table's last row — and add the dot products against the rows of
// that range into dst.
type tileJob struct {
	prg    dpf.PRG
	keys   []*dpf.Key
	v      TableView
	lo, hi uint64
	k      int // MemBoundTree's frontier width
	// workers is MemBoundTree's Workers budget: row-block fan-out of each
	// tile's table stream, and (with a second tile) the expand/stream
	// overlap.
	workers int
	ctr     *gpu.Counters
}

// tileRun is one runTiles call's state and its two leaf matrices. It is
// pooled: the expansion goroutines reach it through a pointer, and a
// per-call allocation would show up in the engine's steady-state Answer
// (two allocations, both the returned answers).
type tileRun struct {
	tileJob
	bits   int
	leaves [2]leafTile    // the streaming tile's leaf shares and the next tile's
	wg     sync.WaitGroup // the in-flight expansion of the next tile
}

var tileRunPool = sync.Pool{New: func() any { return new(tileRun) }}

// runTiles executes job in tiles of tileQueries keys: each tile's keys
// expand into a leaf matrix, then ONE streaming pass over the range's rows
// serves all the tile's dot products (accumulateTilePar — the §3.1 batched
// matmul, row-block-parallel under a worker budget). With a worker budget
// and more than one tile, tile N+1 expands into the second leaf matrix
// while tile N streams: expansion is AES-bound and the stream
// memory-bound, so overlapping them stops the phases serializing. At most
// one expansion is in flight — double buffering, not a queue — and each
// tile still accumulates into its own dst slice, so answers are
// bit-identical whatever the budget. Expansion cannot fail; the first
// error of the view's ends the batch: no later tile is expanded or
// streamed. Callers have validated keys, range and dst (validateRun).
func runTiles(job tileJob, dst [][]uint32) error {
	r := tileRunPool.Get().(*tileRun)
	r.tileJob, r.bits = job, dpf.DomainBits(job.v.Rows())
	r.workers = parWorkers(job.workers)

	keys, width := r.keys, int(r.hi-r.lo)
	rowLo, rowHi := int(r.lo), min(int(r.hi), r.v.Rows())
	overlap := r.workers > 1 && len(keys) > tileQueries
	cur, nxt := &r.leaves[0], &r.leaves[1]
	ready := false // cur was expanded while the previous tile streamed
	var err error
	for t := 0; t < len(keys) && err == nil; t += tileQueries {
		te := tileEnd(t, len(keys))
		if !ready {
			cur.shape(te-t, width)
			r.expandTile(keys[t:te], cur)
		}
		if ready = overlap && te < len(keys); ready {
			nte := tileEnd(te, len(keys))
			nxt.shape(nte-te, width)
			r.wg.Add(1)
			go r.expandNext(keys[te:nte], nxt)
		}
		if rowLo < rowHi {
			err = accumulateTilePar(r.v, rowLo, rowHi, cur.rows, dst[t:te], r.workers)
		}
		// The in-flight expansion writes nxt and ctr: join it before
		// touching either, or returning past it.
		r.wg.Wait()
		if ready {
			cur, nxt = nxt, cur
		}
	}
	r.tileJob = tileJob{}
	tileRunPool.Put(r)
	return err
}

// expandTile fills lt with the tile's leaf shares. A one-key tile and a
// single-core host expand inline — no goroutine, no closure — which keeps
// the engine's sequential steady state allocation-free; otherwise the
// keys fan out across the cores.
func (r *tileRun) expandTile(tile []*dpf.Key, lt *leafTile) {
	if len(tile) == 1 || runtime.GOMAXPROCS(0) == 1 {
		for i, key := range tile {
			expandMemBound(r, key, lt.rows[i])
		}
		return
	}
	gpu.ParallelFor(len(tile), func(i int) {
		expandMemBound(r, tile[i], lt.rows[i])
	})
}

// expandNext is expandTile as the overlapped goroutine.
func (r *tileRun) expandNext(tile []*dpf.Key, lt *leafTile) {
	defer r.wg.Done()
	r.expandTile(tile, lt)
}
