package strategy

import (
	"sync"

	"gpudpf/internal/dpf"
)

// This file holds the pooled scratch the tiled hot paths run through. Two
// kinds of state recur across strategies: a tile of leaf-share vectors
// (what accumulateTile consumes; pooled with the tile loop's run state in
// tiles.go) and per-goroutine tree-walk buffers (frontiers, batch scratch,
// per-key path states). Both grow to the largest shape seen and are
// recycled through sync.Pools, so the steady-state RunRangeInto path
// performs no allocations.

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

// walkScratch is one goroutine's reusable expansion state: the membound
// per-depth node groups, a breadth-first frontier, the PRG batch scratch,
// per-key path states for the tiled path-per-leaf descent, and small local
// accumulator/buffer space.
type walkScratch struct {
	levels   [][]dpf.Seed // membound: node group per depth, cap 2K each
	levelT   [][]uint8
	frontier dpf.FrontierScratch // breadth-first ping-pong levels
	batch    dpf.BatchScratch
	seeds    []dpf.Seed // per-key path states (branch tile walk)
	ts       []uint8
	cws      []dpf.CW   // per-key correction words, one level at a time
	local    []uint32   // chunk-local answer accumulators, tile × lanes
	localHdr [][]uint32 // per-query headers into local
	buf      []uint32   // range leaf buffer (cpu/multigpu EvalRange)
}

// coopScratch holds CoopGroups' domain-wide ping-pong level buffers. It
// pools separately from walkScratch on purpose: one large-table coop run
// grows these to O(domain) bytes, and a shared pool would recirculate
// that footprint through the strategies that only need kilobytes.
type coopScratch struct {
	pingS []dpf.Seed
	pongS []dpf.Seed
	pingT []uint8
	pongT []uint8
}

var coopScratchPool = sync.Pool{New: func() any { return new(coopScratch) }}

func getCoopScratch() *coopScratch { return coopScratchPool.Get().(*coopScratch) }

func (c *coopScratch) release() { coopScratchPool.Put(c) }

// growPing returns domain-wide ping-pong level buffers (contents stale).
func (c *coopScratch) growPing(n int) (cur []dpf.Seed, curT []uint8, next []dpf.Seed, nextT []uint8) {
	if cap(c.pingS) < n {
		c.pingS, c.pongS = make([]dpf.Seed, n), make([]dpf.Seed, n)
		c.pingT, c.pongT = make([]uint8, n), make([]uint8, n)
	}
	return c.pingS[:n], c.pingT[:n], c.pongS[:n], c.pongT[:n]
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

// growKeys sizes the per-key path-state buffers for a tile of n keys.
func (w *walkScratch) growKeys(n int) {
	if cap(w.seeds) < n {
		w.seeds = make([]dpf.Seed, n)
		w.ts = make([]uint8, n)
	}
	w.seeds, w.ts = w.seeds[:n], w.ts[:n]
}

// growCWMat returns a levels×n correction-word matrix (row per level,
// contents stale) so the per-leaf descent can gather each key's CWs once
// per chunk instead of once per leaf.
func (w *walkScratch) growCWMat(levels, n int) []dpf.CW {
	need := levels * n
	if cap(w.cws) < need {
		w.cws = make([]dpf.CW, need)
	}
	w.cws = w.cws[:need]
	return w.cws
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

// growBuf returns an n-wide uint32 buffer (contents stale).
func (w *walkScratch) growBuf(n int) []uint32 {
	if cap(w.buf) < n {
		w.buf = make([]uint32, n)
	}
	w.buf = w.buf[:n]
	return w.buf
}

// tileEnd clips a tile starting at q to the batch size.
func tileEnd(q, n int) int {
	if q+tileQueries < n {
		return q + tileQueries
	}
	return n
}
