package model

import "gpudpf/internal/dpf"

// CoopGroups is the paper's batch/table-size-aware scheduling (§3.2.5): for
// very large tables a *single* DPF already saturates the device, so all
// blocks cooperate on one DPF at a time (CUDA cooperative groups provide
// the required grid-wide barrier per level). Queries in the batch execute
// back to back, which slashes per-query latency on huge tables; on small
// tables the per-level grid synchronization dominates and utilization
// collapses — exactly Figure 9b.
type CoopGroups struct{}

// Name implements Modeler.
func (CoopGroups) Name() string { return "coop-groups" }

// CoopThresholdBits is the table size (log2) above which the paper selects
// cooperative groups over batched execution (2^22 entries, §3.2.5).
const CoopThresholdBits = 22

// Schedule is the paper's modeled scheduler: it picks the strategy whose
// Model prices a table of 2^bits rows — the fused memory-bounded traversal
// below the threshold, cooperative groups at or above it. The figures and
// the co-design search call it; no executor does (the engine runs
// strategy.MemBoundTree at every width).
func Schedule(bits int) Modeler {
	if bits >= CoopThresholdBits {
		return CoopGroups{}
	}
	return MemBound{K: DefaultK, Fused: true}
}

// coopMemBytes models one query's working set: the two widest ping-pong
// level buffers (the terminal frontier is domain >> early nodes), exactly
// one query resident at a time.
func coopMemBytes(bits, lanes, early int) int64 {
	frontier := int64(1) << uint(bits-early)
	return frontier*nodeBytes + frontier/2*nodeBytes + int64(lanes)*4
}

// prfBlocks counts every internal node of each query's tree once: the
// grid expands one whole level per barrier.
func (CoopGroups) prfBlocks(bits, early, batch int) int64 {
	return int64(batch) * treeBlocks(bits, early)
}

// Model implements Modeler. Latency is summed per level because the
// exposed parallelism is the level width: narrow levels near the root leave
// the device mostly idle, and every level pays a grid-sync (launch)
// overhead.
func (c CoopGroups) Model(dev *Device, prg dpf.PRG, bits, batch, lanes int) (Report, error) {
	domain := int64(1) << uint(bits)
	early := modelEarly(bits)
	if coopMemBytes(bits, lanes, early) > dev.GlobalMemBytes {
		return Report{}, ErrOutOfMemory
	}
	cpb := prgCyclesPerBlock(prg.GPUCyclesPerBlock(), early)
	var perQuery float64 // seconds
	var cycles float64
	for level := 0; level < bits-early; level++ {
		width := int64(1) << uint(level) // nodes expanded at this level
		levelCycles := float64(width*dpf.BlocksPerExpand) * cpb
		cycles += levelCycles
		occ := dev.Occupancy(width)
		lanesActive := occ * float64(dev.TotalLanes())
		perQuery += levelCycles / (lanesActive * dev.ClockHz)
		perQuery += dev.LaunchOverhead.Seconds()
	}
	// Fused dot product at the leaf level, full width.
	dot := dotArithCycles(1, bits, lanes)
	cycles += dot
	perQuery += dot / (float64(dev.TotalLanes()) * dev.ClockHz)
	memSec := float64(domain*int64(lanes)*4) / dev.MemBandwidthBps
	if memSec > perQuery {
		perQuery = memSec
	}
	lat := timeFromSeconds(perQuery * float64(batch))
	util := 0.0
	if lat > 0 {
		util = cycles * float64(batch) / (lat.Seconds() * dev.LaneCyclesPerSecond())
	}
	r := Report{
		Strategy:     c.Name(),
		PRG:          prg.Name(),
		Bits:         bits,
		Batch:        batch,
		Lanes:        lanes,
		PRFBlocks:    c.prfBlocks(bits, early, batch),
		PeakMemBytes: coopMemBytes(bits, lanes, early),
		Latency:      lat,
		Utilization:  util,
	}
	if lat > 0 {
		r.Throughput = float64(batch) / lat.Seconds()
	}
	return r, nil
}
