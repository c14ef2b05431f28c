package model

import "gpudpf/internal/dpf"

// MemBound is the paper's memory-bounded tree traversal (§3.2.3) as a
// model: a depth-first descent that keeps at most K nodes per level alive,
// giving optimal O(L) work with an O(B·K·log L) working set instead of
// level-by-level's O(B·L). Fused prices the paper's DPF×matmul fusion
// (§3.2.4): one kernel, and no expanded leaf vector written to and read
// back from global memory. strategy.MemBoundTree is its host executor.
type MemBound struct {
	// K is the frontier width; 0 means DefaultK.
	K int
	// Fused prices the expansion and the dot product as one kernel.
	Fused bool
}

// Name implements Modeler.
func (m MemBound) Name() string {
	if m.Fused {
		return "membound-fused"
	}
	return "membound-unfused"
}

func (m MemBound) k() int {
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

// memBytes models the device working set of the batch; early is the keys'
// termination depth (terminal nodes cover 2^early leaves, so the walk is
// that many levels shorter).
func (m MemBound) memBytes(batch, bits, lanes, early int) int64 {
	k := int64(m.k())
	levels := int64(memBoundLevels(bits-early, m.k()))
	perQuery := levels*2*k*nodeBytes + int64(lanes)*4
	if !m.Fused {
		perQuery += (int64(1) << uint(bits)) * 4 // expanded leaf vector
	}
	return int64(batch) * perQuery
}

// prfBlocks counts every internal node of each query's tree once — the
// optimal O(L) work, whatever K.
func (MemBound) prfBlocks(bits, early, batch int) int64 {
	return int64(batch) * treeBlocks(bits, early)
}

// Model implements Modeler. PRFBlocks prices the early-terminated tree
// (the default key format for this depth); the per-block cycle constant is
// re-anchored accordingly (see prgCyclesPerBlock).
func (m MemBound) Model(dev *Device, prg dpf.PRG, bits, batch, lanes int) (Report, error) {
	domain := int64(1) << uint(bits)
	early := modelEarly(bits)
	p := KernelProfile{
		PRFBlocks:         m.prfBlocks(bits, early, batch),
		ReadBytes:         tableReadBytes(batch, bits, lanes),
		WriteBytes:        int64(batch) * int64(lanes) * 4,
		Launches:          1,
		PeakMemBytes:      m.memBytes(batch, bits, lanes, early),
		PRGCyclesPerBlock: prgCyclesPerBlock(prg.GPUCyclesPerBlock(), early),
		Parallelism:       int64(batch) * int64(m.k()),
		ArithCycles:       dotArithCycles(batch, bits, lanes),
	}
	if !m.Fused {
		leafBytes := int64(batch) * domain * 4
		p.ReadBytes += leafBytes
		p.WriteBytes += leafBytes
		p.Launches++ // separate matmul kernel
	}
	r, err := finishReport(dev, m.Name(), prg, bits, batch, lanes, p)
	if err != nil {
		return r, err
	}
	if !m.Fused {
		// An unfused pipeline cannot overlap the expansion kernel's compute
		// with the matmul kernel's memory traffic; serialize the phases
		// (this is what Figure 14 measures).
		memSec := float64(p.ReadBytes+p.WriteBytes) / dev.MemBandwidthBps
		r.Latency += timeFromSeconds(memSec)
		if r.Latency > 0 {
			r.Throughput = float64(batch) / r.Latency.Seconds()
		}
	}
	return r, nil
}
