package strategy

import (
	"math/bits"
	"sync"

	"gpudpf/internal/dpf"
)

// This file is the tile loop: a tile of at most tileQueries queries
// multiplied against the table in one streaming pass (§3.1, §3.2.4).
// MemBoundTree.RunRangeInto hands runTiles a row range. Each tile key's
// memory-bounded descent stops at a block frontier, one seed and control
// bit per aligned block of rows (blockShift); the view's Pass workers then
// expand each chunk's rows for every tile key from that frontier into a
// pooled span of leaves and accumulate it while it is in L2 (tilePass,
// parallel.go). Expansion thus runs where the stream does, on the pass's
// workers and under their one budget, in the order the backing picks (see
// TableView.Pass), and a pass holds a span of leaves per worker, never a
// matrix over its range.

const (
	// leafSpanRows is the most rows one accumulate call covers: a full
	// tile's span of leaves is 512 KiB, which stays in L2 while the rows
	// stream past it.
	leafSpanRows = 4096
	// blockBytes sizes an expansion block: the rows of 256 KiB of table
	// (store.DefaultPageBytes), rounded down to a power of two and at most
	// a span — 4096 rows of 64 B, 64 of 4 KiB. An in-RAM pass cuts its
	// chunks at block multiples, and a default page of power-of-two-lane
	// rows is whole blocks, so no served chunk splits a block.
	blockBytes = 256 << 10
)

// blockShift is log2 of the expansion block's rows for a table of lanes
// lanes (see blockBytes).
func blockShift(lanes int) int {
	return bits.Len(uint(min(leafSpanRows, max(1, blockBytes/(4*lanes))))) - 1
}

// tileJob is what MemBoundTree asks of runTiles: the dot products of every
// key's leaves over rows [lo, hi) against those rows, added into dst.
type tileJob struct {
	prg    dpf.PRG
	keys   []*dpf.Key
	v      TableView
	lo, hi uint64
	k      int // MemBoundTree's frontier width
	// workers is MemBoundTree's Workers budget: the workers of each
	// tile's table pass, which also expand its leaves.
	workers int
	ctr     *Counters
}

// tileRun is one runTiles call's state: the tile being streamed and its
// keys' block frontier. It is pooled, so a steady-state call allocates
// nothing of its own, and it is the pass's leafSource.
type tileRun struct {
	tileJob
	bits, shift int
	level       int // the tree level whose nodes span one block
	tile        []*dpf.Key
	b0, nb      int        // the blocks [b0, b0+nb) overlapping the range
	front       []dpf.Seed // key q's seed of block b at q·nb + b - b0
	frontT      []uint8
	// split[b-b0] is block b's leaves while chunk boundaries cut it (see
	// fromSplit); mu guards it.
	mu    sync.Mutex
	split []*splitBlock
}

// splitBlock is a block's leaves, expanded whole once; left counts its
// rows not yet drawn and ready opens once it is expanded.
type splitBlock struct {
	left  int
	ready sync.WaitGroup
	lt    leafTile
}

var (
	tileRunPool    = sync.Pool{New: func() any { return new(tileRun) }}
	splitBlockPool = sync.Pool{New: func() any { return new(splitBlock) }}
)

// runTiles executes job in tiles of tileQueries keys: each tile's keys
// descend to the block frontier, then ONE pass over the range's rows
// expands and accumulates all the tile's dot products (runPass — the §3.1
// batched matmul, fanned out through the view's Pass). Every tree node is
// expanded once: above the block level by the descent, below it by the
// worker handed the block's rows. Each tile accumulates into its own dst
// slice, so answers are bit-identical whatever the budget. The first
// error of the view's ends the batch: no later tile is descended or
// streamed. Each tile pass that completes adds the range's table bytes to
// ctr. Callers have validated keys, range and dst (validateRun).
func runTiles(job tileJob, dst [][]uint32) error {
	r := tileRunPool.Get().(*tileRun)
	r.tileJob, r.bits = job, dpf.DomainBits(job.v.Rows())
	// A block is at least a terminal group and at most the domain.
	r.shift = min(r.bits, max(job.keys[0].Early, blockShift(job.v.Lanes())))
	r.level = r.bits - r.shift
	r.b0 = int(r.lo >> r.shift)
	r.nb = int((r.hi-1)>>r.shift) - r.b0 + 1
	if cap(r.split) < r.nb {
		r.split = make([]*splitBlock, r.nb)
	}
	r.split = r.split[:r.nb]
	var err error
	for t := 0; t < len(r.keys) && err == nil; t += tileQueries {
		te := min(t+tileQueries, len(r.keys))
		r.descend(r.keys[t:te])
		if err = runPass(r.v, int(r.lo), int(r.hi), r.workers, r, dst[t:te]); err == nil {
			r.ctr.AddRead(int64(r.hi-r.lo) * int64(r.v.Lanes()) * 4)
		}
		clear(r.split) // a failed pass may leave some
	}
	r.tileJob, r.tile = tileJob{}, nil
	tileRunPool.Put(r)
	return err
}

// descend walks each tile key from its root to the block level, recording
// one seed and control bit per block of the range.
func (r *tileRun) descend(tile []*dpf.Key) {
	r.tile = tile
	n := len(tile) * r.nb
	if cap(r.front) < n {
		r.front, r.frontT = make([]dpf.Seed, n), make([]uint8, n)
	}
	r.front, r.frontT = r.front[:n], r.frontT[:n]
	sc := getWalkScratch()
	sc.growLevels(tile[0].TreeDepth(), r.k)
	var blocks int64
	for q, key := range tile {
		sc.levels[0][0], sc.levelT[0][0] = key.Root, key.Party
		w := mbWalker{prg: r.prg, key: key, k: r.k, bits: r.bits, depth: key.TreeDepth(), lo: r.lo, hi: r.hi, sc: sc,
			front: r.front[q*r.nb : (q+1)*r.nb], frontT: r.frontT[q*r.nb : (q+1)*r.nb], stop: r.level, b0: uint64(r.b0)}
		w.walk(0, sc.levels[0][:1], sc.levelT[0][:1], 0)
		blocks += w.blocks
	}
	r.ctr.AddPRFBlocks(blocks)
	sc.release()
}

// leaves implements leafSource: it expands the tile's leaves for rows
// [r0, end) into sc's span, where end is r1 or the first multiple of
// leafSpanRows past r0, and counts the PRF blocks that took. Runs of whole
// blocks expand from their frontier seeds, K blocks to a walk; a block the
// chunk covers only part of comes through fromSplit.
func (r *tileRun) leaves(sc *walkScratch, r0, r1 int) ([][]uint32, int, int) {
	end := min(r1, (r0/leafSpanRows+1)*leafSpanRows)
	sc.span.shape(len(r.tile), end-r0)
	sc.growLevels(r.tile[0].TreeDepth(), r.k)
	var blocks int64
	for p0 := r0; p0 < end; {
		b := p0 >> r.shift
		whole := end>>r.shift - b // blocks [b, b+whole) lie inside [p0, end)
		if end == int(r.hi) {
			whole = (end-1)>>r.shift - b + 1
		}
		if blo, _ := r.blockRows(b); p0 != blo || whole == 0 {
			p1 := min(end, (b+1)<<r.shift)
			blocks += r.fromSplit(sc, b, p0, p1, p0-r0)
			p0 = p1
			continue
		}
		n := min(whole, r.k)
		_, p1 := r.blockRows(b + n - 1)
		blocks += r.expand(sc, b, n, p0, p1, sc.span.rows, p0-r0)
		p0 = p1
	}
	r.ctr.AddPRFBlocks(blocks)
	return sc.span.rows, r0, end
}

// blockRows is block b's rows inside the run's range.
func (r *tileRun) blockRows(b int) (lo, hi int) {
	return max(b<<r.shift, int(r.lo)), min((b+1)<<r.shift, int(r.hi))
}

// expand walks every tile key down from its frontier seeds of blocks
// [b, b+n), n ≤ K, over rows [lo, hi) into dst[q][off:], and returns the
// PRF blocks that took.
func (r *tileRun) expand(sc *walkScratch, b, n, lo, hi int, dst [][]uint32, off int) int64 {
	var blocks int64
	for q, key := range r.tile {
		i := q*r.nb + b - r.b0
		w := mbWalker{prg: r.prg, key: key, k: r.k, bits: r.bits, depth: key.TreeDepth(),
			lo: uint64(lo), hi: uint64(hi), leaf: dst[q][off:], sc: sc}
		w.walk(r.level, r.front[i:i+n], r.frontT[i:i+n], uint64(b)<<r.shift)
		blocks += w.blocks
	}
	return blocks
}

// fromSplit copies rows [p0, p1) of block b, which a chunk boundary cuts,
// into sc's span from column off. Expanding only those rows would expand
// the nodes above the cut twice, so the block's first piece expands it
// whole into a shared splitBlock, the others wait for that, and the last
// one drawn retires it. Only views whose chunks are not block-aligned take
// this path — odd-width written or paged rows, small pages, test views —
// and a block lives until its last piece arrives.
func (r *tileRun) fromSplit(sc *walkScratch, b, p0, p1, off int) int64 {
	lo, hi := r.blockRows(b)
	r.mu.Lock()
	sb := r.split[b-r.b0]
	first := sb == nil
	if first {
		sb = splitBlockPool.Get().(*splitBlock)
		sb.left = hi - lo
		sb.ready.Add(1)
		r.split[b-r.b0] = sb
	}
	r.mu.Unlock()
	var blocks int64
	if first {
		sb.lt.shape(len(r.tile), hi-lo)
		blocks = r.expand(sc, b, 1, lo, hi, sb.lt.rows, 0)
		sb.ready.Done()
	}
	sb.ready.Wait()
	for q, row := range sb.lt.rows {
		copy(sc.span.rows[q][off:], row[p0-lo:p1-lo])
	}
	r.mu.Lock()
	if sb.left -= p1 - p0; sb.left == 0 {
		r.split[b-r.b0] = nil
		splitBlockPool.Put(sb)
	}
	r.mu.Unlock()
	return blocks
}
