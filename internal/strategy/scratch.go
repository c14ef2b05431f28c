package strategy

import (
	"sync"

	"gpudpf/internal/dpf"
)

// This file holds the pooled scratch the tiled hot path runs through: a
// tile of leaf-share vectors (what accumulateTile consumes; pooled with the
// tile loop's run state in tiles.go) and per-goroutine walk buffers (the
// membound node groups, batch scratch, a row-block worker's partial
// answers). Both grow to the largest shape seen and are recycled through
// sync.Pools, so the steady-state RunRangeInto path performs no
// allocations.

// leafTile is a tile of leaf-share vectors: queries × rows values in one
// flat backing, with per-query headers. A tileRun owns two (the tile loop's
// double buffer) and is pooled with them.
type leafTile struct {
	flat []uint32
	rows [][]uint32
}

// shape sizes the tile to queries × rows. Contents are stale — every
// walker overwrites its full in-range span before accumulateTile reads it.
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
// per-depth node groups, the PRG batch scratch, and a row-block worker's
// local accumulators.
type walkScratch struct {
	levels   [][]dpf.Seed // membound: node group per depth, cap 2K each
	levelT   [][]uint8
	batch    dpf.BatchScratch
	local    []uint32   // row-block-local answer accumulators, tile × lanes
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

// tileEnd clips a tile starting at q to the batch size.
func tileEnd(q, n int) int {
	if q+tileQueries < n {
		return q + tileQueries
	}
	return n
}
