package strategy

import (
	"fmt"

	"gpudpf/internal/dpf"
	"gpudpf/internal/gpu"
)

// DefaultK is the frontier width the paper settles on for the V100
// (§3.2.3): wide enough to expose parallelism, narrow enough to keep the
// working set on-chip.
const DefaultK = 128

// MemBoundTree is the paper's memory-bounded tree traversal (§3.2.3): a
// depth-first descent that keeps at most K nodes per level alive, giving
// optimal O(L) work with an O(B·K·log L) working set instead of
// level-by-level's O(B·L). With Fused set, the leaf dot product against the
// table is fused into the traversal (§3.2.4), eliminating the expanded
// one-hot vector's global-memory round trip entirely.
//
// Execution is batched: each query's K-wide frontier advances one
// dpf.StepBothBatch (one PRF batch call) per group-level, and the shared
// tile loop (runTiles) streams the row range once per tile of queries. All
// traversal state comes from pooled scratch, so the steady-state hot path
// allocates nothing.
type MemBoundTree struct {
	// K is the frontier width; 0 means DefaultK.
	K int
	// Fused enables DPF×matmul operator fusion.
	Fused bool
	// Workers is the tile loop's worker budget (see tileJob); answers are
	// bit-identical whatever its value.
	Workers int
}

// Name implements Modeler.
func (m MemBoundTree) Name() string {
	if m.Fused {
		return "membound-fused"
	}
	return "membound-unfused"
}

func (m MemBoundTree) k() int {
	if m.K <= 0 {
		return DefaultK
	}
	return m.K
}

// memBoundLevels is the number of recursion frames holding a K-wide
// buffer; the walk is depth levels deep (tree depth minus the
// early-termination cut).
func memBoundLevels(depth, k int) int {
	lg := 0
	for 1<<uint(lg+1) <= k {
		lg++
	}
	levels := depth - lg + 1
	if levels < 1 {
		levels = 1
	}
	return levels
}

// memBytes models the modeled device working set of the batch; early is
// the keys' termination depth (terminal nodes cover 2^early leaves, so the
// walk is that many levels shorter).
func (m MemBoundTree) memBytes(batch, bits, lanes, early int) int64 {
	k := int64(m.k())
	levels := int64(memBoundLevels(bits-early, m.k()))
	perQuery := levels*2*k*nodeBytes + int64(lanes)*4
	if !m.Fused {
		perQuery += (int64(1) << uint(bits)) * 4 // expanded leaf vector
	}
	return int64(batch) * perQuery
}

// RunRangeInto implements Strategy: the descent prunes every K-wide node
// group whose leaf span misses [lo, hi), so a 1/N range costs ~1/N of the
// PRF work plus one root-to-range path. The walk stops at the table's last
// row — leaves past it would meet no row — so only a power-of-two table's
// whole-table run counts Model's PRF blocks. Memory and table reads are
// accounted as Model prices them: the padded domain for the whole-table
// range, proportionally for partial ones.
func (m MemBoundTree) RunRangeInto(prg dpf.PRG, keys []*dpf.Key, v TableView, lo, hi int, ctr *gpu.Counters, dst [][]uint32) error {
	if err := validateRun(keys, v, lo, hi, dst); err != nil {
		return err
	}
	k := m.k()
	if k&(k-1) != 0 {
		return fmt.Errorf("strategy: K=%d must be a power of two", k)
	}
	bits := dpf.DomainBits(v.Rows())
	lanes := v.Lanes()
	early := keys[0].Early
	full := fullRange(v.Rows(), lo, hi)
	rows := hi - lo // accounted rows
	if full {
		rows = 1 << uint(bits)
	}
	var mem int64
	if full {
		mem = m.memBytes(len(keys), bits, lanes, early)
	} else {
		perQuery := int64(memBoundLevels(bits-early, k))*2*int64(k)*nodeBytes + int64(lanes)*4
		if !m.Fused {
			perQuery += int64(rows) * 4
		}
		mem = int64(len(keys)) * perQuery
	}
	ctr.Alloc(mem)
	defer ctr.Free(mem)
	ctr.AddLaunch()
	if !m.Fused {
		ctr.AddLaunch() // separate matmul kernel
	}

	job := tileJob{prg: prg, keys: keys, v: v, lo: uint64(lo), hi: uint64(hi), k: k, workers: m.Workers, ctr: ctr}
	if err := runTiles(job, dst); err != nil {
		return err
	}

	var reads, writes int64
	if full {
		reads = tableReadBytes(len(keys), bits, lanes)
	} else {
		reads = rangeReadBytes(len(keys), lanes, rows)
	}
	writes = int64(len(keys)) * int64(lanes) * 4
	if !m.Fused {
		leafBytes := int64(len(keys)) * int64(rows) * 4
		reads += leafBytes
		writes += leafBytes
	}
	ctr.AddRead(reads)
	ctr.AddWrite(writes)
	return nil
}

// expandMemBound walks one key's memory-bounded descent over leaves
// [lo, hi) with pooled scratch, writing leaf shares into leaf (indexed
// j-lo) and counting PRF blocks. The walk is TreeDepth levels deep:
// early-terminated keys stop above the leaves and convert each terminal
// seed into its whole leaf group.
func expandMemBound(r *tileRun, key *dpf.Key, lo, hi uint64, leaf []uint32) {
	sc := getWalkScratch()
	depth := key.TreeDepth()
	sc.growLevels(depth, r.k)
	w := mbWalker{prg: r.prg, key: key, k: r.k, bits: r.bits, depth: depth, lo: lo, hi: hi, leaf: leaf, sc: sc}
	sc.levels[0][0] = key.Root
	sc.levelT[0][0] = key.Party
	w.walk(0, sc.levels[0][:1], sc.levelT[0][:1], 0)
	r.ctr.AddPRFBlocks(w.blocks)
	sc.release()
}

// mbWalker is one query's memory-bounded descent: groups of at most K
// nodes advance level by level through the scratch's per-depth buffers,
// one batched PRF call per group-level.
type mbWalker struct {
	prg    dpf.PRG
	key    *dpf.Key
	k      int
	bits   int
	depth  int // tree depth actually walked (bits - key.Early)
	lo, hi uint64
	leaf   []uint32 // leaf shares for [lo, hi), indexed j-lo
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
	if level == w.depth-1 && w.key.Lanes == 1 {
		// Fused final step: when the group's children's leaves all lie
		// inside [lo, hi), the last expansion corrects and converts straight
		// into the leaf matrix (dpf.StepLeafBatch) — the terminal frontier,
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

// prfBlocks counts every internal node of each query's tree once — the
// optimal O(L) work, whatever K.
func (MemBoundTree) prfBlocks(bits, early, batch int) int64 {
	return int64(batch) * treeBlocks(bits, early)
}

// Model implements Modeler. PRFBlocks prices the early-terminated tree
// (the default key format for this depth); the per-block cycle constant is
// re-anchored accordingly (see prgCyclesPerBlock).
func (m MemBoundTree) Model(dev *gpu.Device, prg dpf.PRG, bits, batch, lanes int) (Report, error) {
	domain := int64(1) << uint(bits)
	early := modelEarly(bits)
	reads := tableReadBytes(batch, bits, lanes)
	writes := int64(batch) * int64(lanes) * 4
	launches := int64(1)
	if !m.Fused {
		leafBytes := int64(batch) * domain * 4
		reads += leafBytes
		writes += leafBytes
		launches++
	}
	st := gpu.Stats{
		PRFBlocks:    m.prfBlocks(bits, early, batch),
		ReadBytes:    reads,
		WriteBytes:   writes,
		Launches:     launches,
		PeakMemBytes: m.memBytes(batch, bits, lanes, early),
	}
	p := gpu.KernelProfile{
		Stats:             st,
		PRGCyclesPerBlock: prgCyclesPerBlock(prg.GPUCyclesPerBlock(), early),
		Parallelism:       int64(batch) * int64(m.k()),
		ArithCycles:       dotArithCycles(batch, bits, lanes),
	}
	r, err := finishReport(dev, m.Name(), prg, bits, batch, lanes, p)
	if err != nil {
		return r, err
	}
	if !m.Fused {
		// An unfused pipeline cannot overlap the expansion kernel's compute
		// with the matmul kernel's memory traffic; serialize the phases
		// (this is what Figure 14 measures).
		memSec := float64(st.ReadBytes+st.WriteBytes) / dev.MemBandwidthBps
		r.Latency += timeFromSeconds(memSec)
		if r.Latency > 0 {
			r.Throughput = float64(batch) / r.Latency.Seconds()
		}
	}
	return r, nil
}
