package model

// BranchParallel assigns each thread one terminal node (a leaf for
// full-depth keys, a 2^Early-leaf group for early-terminated ones) and
// recomputes the whole root-to-terminal path per thread (Figure 5a). It
// exposes maximal parallelism and needs almost no intermediate memory, but
// performs O(G·log L) PRF work (G = L >> Early terminal nodes) instead of
// the optimal O(G) — the redundancy the paper's Figure 6 charts. On a CPU,
// strategy.MemBoundTree computes the same answers.
type BranchParallel struct{}

// Name implements Modeler.
func (BranchParallel) Name() string { return "branch-parallel" }

// prfBlocks counts one block per level per terminal node: a thread derives
// only the child on its path at each level.
func (BranchParallel) prfBlocks(bits, early, batch int) int64 {
	return int64(batch) * (int64(1) << uint(bits-early)) * int64(bits-early)
}

// Model implements Modeler: one thread per terminal node recomputing its
// depth-long path, so total work is batch × (L>>early) × (bits-early)
// blocks — still the redundant-by-log-factor strategy, on a tree 2^early×
// narrower. The per-thread path state lives in registers, so the only
// device allocation is the per-query output accumulators.
func (b BranchParallel) Model(dev *Device, prf PRF, bits, batch, lanes int) (Report, error) {
	early := modelEarly(bits)
	frontier := int64(1) << uint(bits-early)
	outBytes := int64(batch) * int64(lanes) * 4
	p := KernelProfile{
		PRFBlocks:         b.prfBlocks(bits, early, batch),
		ReadBytes:         tableReadBytes(batch, bits, lanes),
		WriteBytes:        outBytes,
		Launches:          1,
		PeakMemBytes:      outBytes,
		PRGCyclesPerBlock: prgCyclesPerBlock(prf.GPUCyclesPerBlock, early),
		Parallelism:       int64(batch) * frontier,
		ArithCycles:       dotArithCycles(batch, bits, lanes),
	}
	return finishReport(dev, b.Name(), prf, bits, batch, lanes, p)
}
