package strategy

import (
	"fmt"

	"gpudpf/internal/dpf"
	"gpudpf/internal/gpu"
)

// MultiGPU implements the paper's multi-GPU scaling scheme (§3.2.7): when
// one table exceeds a single device's memory, each of N devices evaluates
// the DPF over a 1/N shard of the index range and the partial dot products
// are summed — correct because the final reduction is linear. Each device
// effectively sees a table of L/N entries, so per-query latency drops
// ~linearly with N, while a larger batch is needed to keep every device
// utilized (the paper's closing observation, verified by the model).
type MultiGPU struct {
	// Devices is the shard count N (>= 1).
	Devices int
	// K is the per-device frontier width (0 = DefaultK). Sharded
	// execution always fuses the dot product.
	K int
	// Workers is the tile loop's worker budget (see tileJob), applied to
	// each device's pass. Set via WithWorkers.
	Workers int
}

// withWorkers implements workerTunable.
func (m MultiGPU) withWorkers(n int) Strategy {
	m.Workers = n
	return m
}

// Name implements Strategy.
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

// RunRangeInto implements Strategy: each device evaluates its 1/N of the
// leaf range via the pruned DFS and streams its rows through the shared
// tile loop, the partial dot products summing into dst. The device shards
// split [lo, hi) instead of the whole domain, so a replica-level shard
// nests cleanly inside the multi-device split; a range narrower than the
// device count uses one device per leaf. The whole-table range splits the
// full padded domain, keeping the calibrated counter accounting (cf.
// fullRange in the other strategies), and is refused when that domain has
// fewer leaves than devices.
func (m MultiGPU) RunRangeInto(prg dpf.PRG, keys []*dpf.Key, v TableView, lo, hi int, ctr *gpu.Counters, dst [][]uint32) error {
	if err := validateRun(keys, v, lo, hi, dst); err != nil {
		return err
	}
	n := m.n()
	bits := dpf.DomainBits(v.Rows())
	lanes := v.Lanes()
	rlo, rhi := uint64(lo), uint64(hi)
	full := fullRange(v.Rows(), lo, hi)
	if full {
		rhi = uint64(1) << uint(bits)
	} else if n > hi-lo {
		n = hi - lo
	}
	width := rhi - rlo
	if uint64(n) > width {
		return fmt.Errorf("strategy: %d shards exceed the table's %d-leaf domain", n, width)
	}
	// Modeled per-device working set mirrors the fused membound traversal
	// on a table of L/N rows (clamping the keys' termination depth to what
	// a tiny shard tree can hold).
	inner := MemBoundTree{K: m.k(), Fused: true}
	shardBits := shardDepth(bits, n)
	mem := int64(n) * inner.memBytes(len(keys), shardBits, lanes, dpf.ClampEarly(keys[0].Early, shardBits))
	ctr.Alloc(mem)
	defer ctr.Free(mem)
	ctr.AddLaunch()

	for s := 0; s < n; s++ {
		job := tileJob{prg: prg, keys: keys, v: v, workers: m.Workers, ctr: ctr, expand: expandRange,
			lo: rlo + uint64(s)*width/uint64(n), hi: rlo + uint64(s+1)*width/uint64(n)}
		if err := runTiles(job, dst); err != nil {
			return err
		}
	}
	if full {
		ctr.AddRead(tableReadBytes(len(keys), bits, lanes))
	} else {
		ctr.AddRead(rangeReadBytes(len(keys), lanes, int(width)))
	}
	ctr.AddWrite(int64(len(keys)) * int64(lanes) * 4 * int64(n))
	return nil
}

// Model implements Strategy: each device runs the fused membound model on
// an L/N-entry shard; devices run in parallel, so batch latency is the
// shard latency plus a small cross-device reduction.
func (m MultiGPU) Model(dev *gpu.Device, prg dpf.PRG, bits, batch, lanes int) (Report, error) {
	n := m.n()
	inner := MemBoundTree{K: m.k(), Fused: true}
	shardBits := shardDepth(bits, n)
	rep, err := inner.Model(dev, prg, shardBits, batch, lanes)
	if err != nil {
		return Report{}, fmt.Errorf("strategy %s: %w", m.Name(), err)
	}
	// Cross-device reduction: each device ships batch×lanes partial sums.
	reduceSec := float64(int64(n)*int64(batch)*int64(lanes)*4) / dev.MemBandwidthBps
	rep.Strategy = m.Name()
	rep.Bits = bits
	// Total fleet work: each shard walks its own early-terminated subtree
	// and re-derives its root-to-shard path, so sharding costs
	// 2·(bits-early) extra blocks per (query, shard) over the
	// single-device optimum. Priced with the full tree's default
	// termination depth — the keys' wire format doesn't change when the
	// evaluation is sharded.
	early := modelEarly(bits)
	shardGroups := (int64(1)<<uint(shardBits) + int64(1)<<uint(early) - 1) >> uint(early)
	rep.PRFBlocks = int64(n)*int64(batch)*(2*shardGroups-2) + int64(batch)*int64(n)*2*int64(bits-early)
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
