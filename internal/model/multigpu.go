package model

import "fmt"

// MultiGPU implements the paper's multi-GPU scaling scheme (§3.2.7): when
// one table exceeds a single device's memory, each of N devices evaluates
// the DPF over a 1/N shard of the index range and the partial dot products
// are summed — correct because the final reduction is linear. Each device
// effectively sees a table of L/N entries, so per-query latency drops
// ~linearly with N, while a larger batch is needed to keep every device
// utilized (the paper's closing observation, verified by the model).
// engine.Cluster's shards are the host's form of the split.
type MultiGPU struct {
	// Devices is the shard count N (>= 1).
	Devices int
	// K is the per-device frontier width (0 = DefaultK). Each device runs
	// the fused traversal.
	K int
}

// Name implements Modeler.
func (m MultiGPU) Name() string { return fmt.Sprintf("multigpu-%d", m.n()) }

func (m MultiGPU) n() int {
	if m.Devices < 1 {
		return 1
	}
	return m.Devices
}

func (m MultiGPU) k() int {
	if m.K <= 0 {
		return DefaultK
	}
	return m.K
}

// prfBlocks counts each device's share of the work: its subtree's internal
// nodes plus the root-to-shard path it derives first (bits-early levels
// down to its first terminal node, both children per level) — so sharding
// costs 2·(bits-early) extra blocks per (query, device) over the
// single-device optimum.
func (m MultiGPU) prfBlocks(bits, early, batch int) int64 {
	n := int64(m.n())
	shardGroups := (int64(1)<<uint(shardDepth(bits, m.n())) + int64(1)<<uint(early) - 1) >> uint(early)
	return n * int64(batch) * (2*shardGroups - 2 + 2*int64(bits-early))
}

// Model implements Modeler: each device runs the fused membound model on
// an L/N-entry shard; devices run in parallel, so batch latency is the
// shard latency plus a small cross-device reduction.
func (m MultiGPU) Model(dev *Device, prf PRF, bits, batch, lanes int) (Report, error) {
	n := m.n()
	inner := MemBound{K: m.k(), Fused: true}
	shardBits := shardDepth(bits, n)
	rep, err := inner.Model(dev, prf, shardBits, batch, lanes)
	if err != nil {
		return Report{}, fmt.Errorf("model: %s: %w", m.Name(), err)
	}
	// Cross-device reduction: each device ships batch×lanes partial sums.
	reduceSec := float64(int64(n)*int64(batch)*int64(lanes)*4) / dev.MemBandwidthBps
	rep.Strategy = m.Name()
	rep.Bits = bits
	// Total fleet work, priced with the full tree's default termination
	// depth — the keys' wire format doesn't change when the evaluation is
	// sharded.
	rep.PRFBlocks = m.prfBlocks(bits, modelEarly(bits), batch)
	rep.PeakMemBytes = int64(n) * rep.PeakMemBytes // fleet total
	rep.Latency += timeFromSeconds(reduceSec)
	if rep.Latency > 0 {
		rep.Throughput = float64(batch) / rep.Latency.Seconds()
	}
	return rep, nil
}

// shardDepth is the tree depth of one shard's effective table.
func shardDepth(bits, n int) int {
	d := bits
	for n > 1 {
		d--
		n /= 2
	}
	if d < 1 {
		d = 1
	}
	return d
}
