package strategy

import (
	"fmt"

	"gpudpf/internal/dpf"
)

// DefaultK is the frontier width the paper settles on for the V100
// (§3.2.3): wide enough to expose parallelism, narrow enough to keep the
// working set on-chip.
const DefaultK = 128

// MemBoundTree is the host executor of the paper's memory-bounded tree
// traversal (§3.2.3): a depth-first descent that keeps at most K nodes per
// level alive, giving optimal O(L) work with an O(B·K·log L) working set.
// model.MemBound prices the same traversal on the paper's GPU.
//
// Execution is batched: each query's K-wide frontier advances one
// dpf.StepBothBatch (one PRF batch call) per group-level, and the shared
// tile loop (runTiles) streams the row range once per tile of queries. All
// traversal state comes from pooled scratch, so the steady-state hot path
// allocates nothing.
type MemBoundTree struct {
	// K is the frontier width; 0 means DefaultK.
	K int
	// Workers is the tile loop's worker budget (see tileJob); answers are
	// bit-identical whatever its value.
	Workers int
}

// Name implements Strategy.
func (MemBoundTree) Name() string { return "membound" }

func (m MemBoundTree) k() int {
	if m.K <= 0 {
		return DefaultK
	}
	return m.K
}

// RunRangeInto implements Strategy: the descent prunes every K-wide node
// group whose leaf span misses [lo, hi), so a 1/N range costs ~1/N of the
// PRF work plus one root-to-range path. The walk stops at the table's last
// row — leaves past it would meet no row. ctr receives the PRF blocks
// walked and the table bytes streamed: one pass over [lo, hi) per tile.
func (m MemBoundTree) RunRangeInto(prg dpf.PRG, keys []*dpf.Key, v TableView, lo, hi int, ctr *Counters, dst [][]uint32) error {
	if err := validateRun(keys, v, lo, hi, dst); err != nil {
		return err
	}
	k := m.k()
	if k&(k-1) != 0 {
		return fmt.Errorf("strategy: K=%d must be a power of two", k)
	}
	job := tileJob{prg: prg, keys: keys, v: v, lo: uint64(lo), hi: uint64(hi), k: k, workers: m.Workers, ctr: ctr}
	return runTiles(job, dst)
}

// mbWalker is one query's memory-bounded descent: groups of at most K
// nodes advance level by level through the scratch's per-depth buffers,
// one batched PRF call per group-level. It walks either from the root to
// the run's block level, recording each block's seed into front (the tile
// loop's frontier), or from one block's seed to the leaves, writing leaf
// shares into leaf. The walk is TreeDepth levels deep: early-terminated
// keys stop above the leaves and convert each terminal seed into its whole
// leaf group.
type mbWalker struct {
	prg    dpf.PRG
	key    *dpf.Key
	k      int
	bits   int
	depth  int // tree depth actually walked (bits - key.Early)
	lo, hi uint64
	leaf   []uint32 // leaf shares for [lo, hi), indexed j-lo
	// front and frontT, when set, take the seeds of the nodes at level
	// stop, indexed by their block number less b0, and end the walk there.
	front  []dpf.Seed
	frontT []uint8
	stop   int
	b0     uint64
	sc     *walkScratch
	blocks int64
}

// walk expands the group (seeds, ts) rooted at level covering leaves
// [base, base+span·len(seeds)), pruning nodes outside [lo, hi). At the
// terminal level each node converts into 2^Early leaf shares, clipped to
// the range.
func (w *mbWalker) walk(level int, seeds []dpf.Seed, ts []uint8, base uint64) {
	span := uint64(1) << uint(w.bits-level)
	if base >= w.hi || base+span*uint64(len(seeds)) <= w.lo {
		return // whole group outside the range
	}
	// Trim the group to the nodes whose span meets [lo, hi): a range
	// narrower than one K-group would otherwise drag the whole group down
	// every level and prune nothing.
	if base < w.lo {
		skip := (w.lo - base) / span
		seeds, ts, base = seeds[skip:], ts[skip:], base+skip*span
	}
	if keep := (w.hi - base + span - 1) / span; keep < uint64(len(seeds)) {
		seeds, ts = seeds[:keep], ts[:keep]
	}
	if w.front != nil && level == w.stop {
		i := base/span - w.b0
		copy(w.front[i:], seeds)
		copy(w.frontT[i:], ts)
		return
	}
	if level == w.depth {
		// seeds cover leaves [base, base+len·span); clip to [lo, hi) in
		// frontier-local leaf coordinates and group-convert.
		covered := span * uint64(len(seeds))
		lLo, lHi := uint64(0), covered
		if base < w.lo {
			lLo = w.lo - base
		}
		if base+covered > w.hi {
			lHi = w.hi - base
		}
		dpf.LeafRangeInto(w.key, seeds, ts, lLo, lHi, w.leaf[base+lLo-w.lo:base+lHi-w.lo])
		return
	}
	if level == w.depth-1 && w.front == nil {
		// Fused final step: when the group's children's leaves all lie
		// inside [lo, hi), the last expansion corrects and converts straight
		// into the leaf span (dpf.StepLeafBatch) — the terminal frontier,
		// the walk's widest level, never round-trips through the level
		// buffers. Clipped edge groups fall through to the generic step +
		// LeafRangeInto above.
		covered := span * uint64(len(seeds))
		if base >= w.lo && base+covered <= w.hi {
			dpf.StepLeafBatch(w.prg, w.key, seeds, ts, w.leaf[base-w.lo:base+covered-w.lo], &w.sc.batch)
			w.blocks += int64(len(seeds)) * dpf.BlocksPerExpand
			return
		}
	}
	n := len(seeds)
	next := w.sc.levels[level+1][:2*n]
	nextT := w.sc.levelT[level+1][:2*n]
	dpf.StepBothBatch(w.prg, seeds, ts, w.key.CWs[level], next, nextT, &w.sc.batch)
	w.blocks += int64(n) * dpf.BlocksPerExpand
	if 2*n <= w.k {
		w.walk(level+1, next, nextT, base)
		return
	}
	childSpan := span / 2
	w.walk(level+1, next[:n], nextT[:n], base)
	w.walk(level+1, next[n:], nextT[n:], base+uint64(n)*childSpan)
}
