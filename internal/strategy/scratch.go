package strategy

import (
	"sync"

	"gpudpf/internal/dpf"
)

// This file holds the pooled scratch the tiled hot path runs through:
// per-worker walk buffers (the membound node groups, batch scratch, a span
// of leaf shares, a pass worker's partial answers). They grow to the
// largest shape seen and are recycled through a sync.Pool, so the
// steady-state RunRangeInto path performs no allocations.

// leafTile is a tile of leaf-share vectors: queries × rows values in one
// flat backing, with per-query headers. A pass worker's scratch holds one
// span of them (tileRun.leaves), and so does a block a chunk boundary
// splits.
type leafTile struct {
	flat []uint32
	rows [][]uint32
}

// shape sizes the tile to queries × rows. Contents are stale — every
// walker overwrites its full in-range span before the pass reads it.
func (lt *leafTile) shape(queries, rows int) {
	need := queries * rows
	if cap(lt.flat) < need {
		lt.flat = make([]uint32, need)
	}
	lt.flat = lt.flat[:need]
	if cap(lt.rows) < queries {
		lt.rows = make([][]uint32, queries)
	}
	lt.rows = lt.rows[:queries]
	for q := range lt.rows {
		lt.rows[q] = lt.flat[q*rows : (q+1)*rows]
	}
}

// walkScratch is one goroutine's reusable walk state: the membound
// per-depth node groups, the PRG batch scratch, a pass worker's span of
// leaf shares and its local accumulators.
type walkScratch struct {
	levels   [][]dpf.Seed // membound: node group per depth, cap 2K each
	levelT   [][]uint8
	batch    dpf.BatchScratch
	span     leafTile
	local    []uint32   // pass-worker-local answer accumulators, tile × lanes
	localHdr [][]uint32 // per-query headers into local
}

var walkScratchPool = sync.Pool{New: func() any { return new(walkScratch) }}

func getWalkScratch() *walkScratch { return walkScratchPool.Get().(*walkScratch) }

func (w *walkScratch) release() { walkScratchPool.Put(w) }

// growLevels sizes the membound group buffers: depths+1 levels of capacity
// 2k nodes each (a ≤k-wide group expands to ≤2k children before the walk
// splits it).
func (w *walkScratch) growLevels(depths, k int) {
	if len(w.levels) < depths+1 {
		lv := make([][]dpf.Seed, depths+1)
		lt := make([][]uint8, depths+1)
		copy(lv, w.levels)
		copy(lt, w.levelT)
		w.levels, w.levelT = lv, lt
	}
	for d := 0; d <= depths; d++ {
		if cap(w.levels[d]) < 2*k {
			w.levels[d] = make([]dpf.Seed, 2*k)
			w.levelT[d] = make([]uint8, 2*k)
		}
	}
}

// growLocal returns a zeroed tile × lanes local accumulator matrix whose
// backing and headers both live in the scratch.
func (w *walkScratch) growLocal(queries, lanes int) [][]uint32 {
	need := queries * lanes
	if cap(w.local) < need {
		w.local = make([]uint32, need)
	}
	w.local = w.local[:need]
	clear(w.local)
	if cap(w.localHdr) < queries {
		w.localHdr = make([][]uint32, queries)
	}
	w.localHdr = w.localHdr[:queries]
	for q := range w.localHdr {
		w.localHdr[q] = w.local[q*lanes : (q+1)*lanes]
	}
	return w.localHdr
}
