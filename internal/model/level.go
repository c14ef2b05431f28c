package model

// LevelByLevel expands the tree breadth-first, materializing every level in
// global memory (Figure 5b). Work is the optimal O(L), but the working set
// is O(B·L): the ping-pong level buffers plus the expanded one-hot share
// vector that the separate matrix-multiplication kernel consumes. The
// memory footprint is what caps its batch size (Figure 6, Figure 13).
type LevelByLevel struct{}

// Name implements Modeler.
func (LevelByLevel) Name() string { return "level-by-level" }

// prfBlocks counts every internal node of each query's tree once.
func (LevelByLevel) prfBlocks(bits, early, batch int) int64 {
	return int64(batch) * treeBlocks(bits, early)
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

// Model implements Modeler: an expansion kernel and a separate matmul
// kernel.
func (l LevelByLevel) Model(dev *Device, prf PRF, bits, batch, lanes int) (Report, error) {
	domain := int64(1) << uint(bits)
	early := modelEarly(bits)
	r, w := levelTrafficBytes(batch, bits, early)
	p := KernelProfile{
		PRFBlocks:         l.prfBlocks(bits, early, batch),
		ReadBytes:         r + tableReadBytes(batch, bits, lanes),
		WriteBytes:        w,
		Launches:          2,
		PeakMemBytes:      levelMemBytes(batch, bits, lanes, early),
		PRGCyclesPerBlock: prgCyclesPerBlock(prf.GPUCyclesPerBlock, early),
		// The bottom half of the tree carries most of the work, so the
		// exposed parallelism is effectively batch × frontier/2.
		Parallelism: int64(batch) * (domain >> uint(early)) / 2,
		ArithCycles: dotArithCycles(batch, bits, lanes),
	}
	return finishReport(dev, l.Name(), prf, bits, batch, lanes, p)
}
