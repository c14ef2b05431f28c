package model

import (
	"fmt"

	"gpudpf/internal/dpf"
)

// CPUBaseline is the optimized CPU DPF-PIR the paper compares against
// (Google Research's distributed_point_functions library on a Xeon Gold
// 6230 with AES-NI): a full level-order expansion followed by the table dot
// product, run on a configurable number of threads. Model prices that work
// on the configured CPUModel with hardware-crypto cycle constants,
// reproducing Table 4's single-thread and 32-thread rows.
type CPUBaseline struct {
	// Threads is the worker count (1 = single-threaded row of Table 4).
	Threads int
	// CPU is the modeled processor; nil means XeonGold6230.
	CPU *CPUModel
}

// Name implements Modeler.
func (c CPUBaseline) Name() string { return fmt.Sprintf("cpu-%dt", c.threads()) }

func (c CPUBaseline) threads() int {
	if c.Threads <= 0 {
		return 1
	}
	return c.Threads
}

func (c CPUBaseline) cpu() *CPUModel {
	if c.CPU == nil {
		return XeonGold6230()
	}
	return c.CPU
}

// cpuMemBytes models the per-batch working set: the level-order expansion's
// ping-pong frontier (G + G/2 nodes) plus the answer accumulators.
func cpuMemBytes(batch, bits, lanes, early int) int64 {
	frontier := int64(1) << uint(bits-early)
	return int64(batch) * (frontier*nodeBytes*3/2 + int64(lanes)*4)
}

// prfBlocks counts every internal node of each query's tree once: the
// reference library expands level by level.
func (CPUBaseline) prfBlocks(bits, early, batch int) int64 {
	return int64(batch) * treeBlocks(bits, early)
}

// Model implements Modeler. dev is unused; the CPU model prices the work
// (the reference CPU library performs the same §3.1 early termination, so
// its calibrated per-block constant re-anchors the same way).
func (c CPUBaseline) Model(_ *Device, prg dpf.PRG, bits, batch, lanes int) (Report, error) {
	early := modelEarly(bits)
	blocks := c.prfBlocks(bits, early, batch)
	cycles := float64(blocks)*prgCyclesPerBlock(prg.CPUCyclesPerBlock(), early) + dotArithCycles(batch, bits, lanes)*0.5
	lat := c.cpu().CPUTime(cycles, c.threads())
	r := Report{
		Strategy:     c.Name(),
		PRG:          prg.Name(),
		Bits:         bits,
		Batch:        batch,
		Lanes:        lanes,
		PRFBlocks:    blocks,
		PeakMemBytes: cpuMemBytes(batch, bits, lanes, early),
		Latency:      lat,
		Utilization:  float64(min(c.threads(), c.cpu().Cores)) / float64(c.cpu().Cores),
	}
	if lat > 0 {
		r.Throughput = float64(batch) / lat.Seconds()
	}
	return r, nil
}
