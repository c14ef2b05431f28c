package strategy

import (
	"gpudpf/internal/dpf"
	"gpudpf/internal/gpu"
)

// LevelByLevel expands the tree breadth-first, materializing every level in
// global memory (Figure 5b). Work is the optimal O(L), but the working set
// is O(B·L): the ping-pong level buffers plus the expanded one-hot share
// vector that the separate matrix-multiplication kernel consumes. The
// memory footprint is what caps its batch size (Figure 6, Figure 13).
//
// The host execution advances each level with one dpf.StepBothBatch (one
// PRF batch call per level) through pooled ping-pong buffers; the separate
// matmul pass is the shared tile loop's (runTiles).
type LevelByLevel struct {
	// Workers is the tile loop's worker budget (see tileJob). Set via
	// WithWorkers.
	Workers int
}

// Name implements Strategy.
func (LevelByLevel) Name() string { return "level-by-level" }

// withWorkers implements workerTunable.
func (l LevelByLevel) withWorkers(n int) Strategy {
	l.Workers = n
	return l
}

// levelMemBytes models the per-batch device working set: for each in-flight
// query, the two ping-pong level buffers (G + G/2 nodes at the widest
// moment, where G = L >> early is the terminal frontier) plus the
// L·4-byte expanded leaf vector handed to the matmul.
func levelMemBytes(batch, bits, lanes, early int) int64 {
	domain := int64(1) << uint(bits)
	frontier := domain >> uint(early)
	perQuery := frontier*nodeBytes + frontier/2*nodeBytes + domain*4
	return int64(batch)*perQuery + int64(batch)*int64(lanes)*4
}

// levelTrafficBytes models global-memory traffic: every level is written
// once and read once as the parent of the next (the tree now stops early
// levels up), and the leaf vector makes a write+read round trip into the
// matmul kernel.
func levelTrafficBytes(batch, bits, early int) (reads, writes int64) {
	domain := int64(1) << uint(bits)
	frontier := domain >> uint(early)
	nodeW := (2*frontier - 2) * nodeBytes
	nodeR := (frontier - 2) * nodeBytes
	leaf := domain * 4
	return int64(batch) * (nodeR + leaf), int64(batch) * (nodeW + leaf)
}

// RunRangeInto implements Strategy. Breadth-first expansion materializes
// every level whole, so the range cannot prune PRF work — it only restricts
// the matmul pass. Sharding this strategy buys dot-product parallelism, not
// expansion savings.
func (l LevelByLevel) RunRangeInto(prg dpf.PRG, keys []*dpf.Key, v TableView, lo, hi int, ctr *gpu.Counters, dst [][]uint32) error {
	if err := validateRun(keys, v, lo, hi, dst); err != nil {
		return err
	}
	bits := dpf.DomainBits(v.Rows())
	lanes := v.Lanes()
	early := keys[0].Early
	mem := levelMemBytes(len(keys), bits, lanes, early)
	ctr.Alloc(mem)
	defer ctr.Free(mem)
	ctr.AddLaunch() // expansion kernel
	ctr.AddLaunch() // matmul kernel

	job := tileJob{prg: prg, keys: keys, v: v, lo: uint64(lo), hi: uint64(hi), workers: l.Workers, ctr: ctr, expand: expandLevelByLevel}
	if err := runTiles(job, dst); err != nil {
		return err
	}
	r, w := levelTrafficBytes(len(keys), bits, early)
	if fullRange(v.Rows(), lo, hi) {
		ctr.AddRead(r + tableReadBytes(len(keys), bits, lanes))
	} else {
		ctr.AddRead(r + rangeReadBytes(len(keys), lanes, hi-lo))
	}
	ctr.AddWrite(w)
	return nil
}

// expandLevelByLevel materializes every level of one key's tree through
// pooled ping-pong buffers (one batched PRF call per level) and converts
// the range's leaves into leaf shares — the terminal frontier is Domain()
// >> Early nodes, each group-converted into 2^Early shares.
func expandLevelByLevel(r *tileRun, k *dpf.Key, leaf []uint32) error {
	sc := getWalkScratch()
	seeds, ts := sc.frontier.ExpandFrontier(r.prg, k)
	r.ctr.AddPRFBlocks(treeBlocks(k.Bits, k.Early))
	dpf.LeafRangeInto(k, seeds, ts, r.lo, r.hi, leaf)
	sc.release()
	return nil
}

// Model implements Strategy.
func (LevelByLevel) Model(dev *gpu.Device, prg dpf.PRG, bits, batch, lanes int) (Report, error) {
	domain := int64(1) << uint(bits)
	early := modelEarly(bits)
	r, w := levelTrafficBytes(batch, bits, early)
	st := gpu.Stats{
		PRFBlocks:    int64(batch) * treeBlocks(bits, early),
		ReadBytes:    r + tableReadBytes(batch, bits, lanes),
		WriteBytes:   w,
		Launches:     2,
		PeakMemBytes: levelMemBytes(batch, bits, lanes, early),
	}
	p := gpu.KernelProfile{
		Stats:             st,
		PRGCyclesPerBlock: prgCyclesPerBlock(prg.GPUCyclesPerBlock(), early),
		// The bottom half of the tree carries most of the work, so the
		// exposed parallelism is effectively batch × frontier/2.
		Parallelism: int64(batch) * (domain >> uint(early)) / 2,
		ArithCycles: dotArithCycles(batch, bits, lanes),
	}
	return finishReport(dev, LevelByLevel{}.Name(), prg, bits, batch, lanes, p)
}
