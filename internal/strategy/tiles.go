package strategy

import (
	"sync"

	"gpudpf/internal/dpf"
	"gpudpf/internal/gpu"
)

// This file is the leaf-matrix tile pipeline: a tile of at most
// tileQueries queries' leaf shares (each key's memory-bounded descent,
// expandMemBound) multiplied against the table in one streaming pass
// (§3.1, §3.2.4). MemBoundTree.RunRangeInto hands runTiles a row range
// and keeps only its modeled counter accounting. How many cores a tile
// uses (expansion fanned out per query and, for a tile narrower than the
// budget, per leaf sub-range; the workers of the table pass; the next
// tile's expansion overlapped with this tile's stream) is decided here and
// nowhere else, from MemBoundTree.Workers, the tile's width and the range.
// The order the table pass visits rows in is the view's to choose (see
// TableView.Pass): only the backing knows what is cheap to read next.

// tileJob is what MemBoundTree asks of runTiles: expand every key's leaves
// over rows [lo, hi) and add the dot products against those rows into dst.
type tileJob struct {
	prg    dpf.PRG
	keys   []*dpf.Key
	v      TableView
	lo, hi uint64
	k      int // MemBoundTree's frontier width
	// workers is MemBoundTree's Workers budget: expansion fan-out, the
	// workers of each tile's table pass, and (with a second tile) the
	// expand/stream overlap.
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
// serves all the tile's dot products (accumulateTile — the §3.1 batched
// matmul, fanned out through the view's Pass). With a worker budget and
// more than one tile, tile N+1 expands into the second leaf matrix
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
		err = accumulateTile(r.v, int(r.lo), int(r.hi), cur.rows, dst[t:te], r.workers)
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

// expandTile fills lt with the tile's leaf shares on at most r.workers
// goroutines. A tile narrower than the budget also cuts each key's leaf
// range into splitParts sub-ranges, so one tree spans the cores (the CPU
// form of the paper's cooperative groups, §3.2.5): each walks into its own
// disjoint slice of the key's leaf row — no partials, no merge — and costs
// one extra root-to-cut path. A single task and a one-worker budget expand
// inline — no goroutine, no closure — which keeps the engine's sequential
// steady state allocation-free.
func (r *tileRun) expandTile(tile []*dpf.Key, lt *leafTile) {
	parts := splitParts(r.workers, len(tile), int(r.hi-r.lo))
	if r.workers == 1 || len(tile)*parts == 1 {
		for i, key := range tile {
			expandMemBound(r, key, r.lo, r.hi, lt.rows[i])
		}
		return
	}
	gpu.ParallelForN(len(tile)*parts, r.workers, func(t int) {
		q, p := t/parts, t%parts
		lo, hi := r.cut(tile[q], p, parts), r.cut(tile[q], p+1, parts)
		expandMemBound(r, tile[q], lo, hi, lt.rows[q][lo-r.lo:hi-r.lo])
	})
}

// splitParts is how many leaf sub-ranges each key of a q-query tile over
// width leaves expands in: the cores the tile's queries leave idle, but no
// sub-range narrower than a row block (parMinBlockRows), where the extra
// root-to-cut path and the dispatch would rival the walk itself.
func splitParts(workers, q, width int) int {
	return max(1, min(workers/q, width/parMinBlockRows))
}

// cut is the p-th of parts cut points of the run's leaf range, rounded
// down to a multiple of the key's terminal group so that no terminal seed
// is converted twice; cut 0 and cut parts are the range's ends.
func (r *tileRun) cut(key *dpf.Key, p, parts int) uint64 {
	if p == parts {
		return r.hi
	}
	c := r.lo + (r.hi-r.lo)*uint64(p)/uint64(parts)
	return max(r.lo, c&^(uint64(key.GroupSize())-1))
}

// expandNext is expandTile as the overlapped goroutine.
func (r *tileRun) expandNext(tile []*dpf.Key, lt *leafTile) {
	defer r.wg.Done()
	r.expandTile(tile, lt)
}
