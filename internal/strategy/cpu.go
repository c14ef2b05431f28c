package strategy

import (
	"fmt"

	"gpudpf/internal/dpf"
	"gpudpf/internal/gpu"
)

// CPUBaseline is the optimized CPU DPF-PIR the paper compares against
// (Google Research's distributed_point_functions library on a Xeon Gold
// 6230 with AES-NI): a full level-order expansion followed by the table dot
// product, run on a configurable number of threads.
//
// RunRangeInto really executes on the host; Model prices the same work on
// the configured CPUModel with hardware-crypto cycle constants,
// reproducing Table 4's single-thread and 32-thread rows.
type CPUBaseline struct {
	// Threads is the worker count (1 = single-threaded row of Table 4).
	Threads int
	// CPU is the modeled processor; nil means XeonGold6230.
	CPU *gpu.CPUModel
	// Workers bounds the executed table pass's row-block fan-out. It is
	// separate from Threads, which prices the modeled CPU (and names the
	// strategy). Set via WithWorkers.
	Workers int
}

// withWorkers implements workerTunable.
func (c CPUBaseline) withWorkers(n int) Strategy {
	c.Workers = n
	return c
}

// Name implements Strategy.
func (c CPUBaseline) Name() string { return fmt.Sprintf("cpu-%dt", c.threads()) }

func (c CPUBaseline) threads() int {
	if c.Threads <= 0 {
		return 1
	}
	return c.Threads
}

func (c CPUBaseline) cpu() *gpu.CPUModel {
	if c.CPU == nil {
		return gpu.XeonGold6230()
	}
	return c.CPU
}

// cpuMemBytes models the per-batch working set: the level-order expansion's
// ping-pong frontier (G + G/2 nodes) plus the answer accumulators.
func cpuMemBytes(batch, bits, lanes, early int) int64 {
	frontier := int64(1) << uint(bits-early)
	return int64(batch) * (frontier*nodeBytes*3/2 + int64(lanes)*4)
}

// RunRangeInto implements Strategy. The whole table is expanded level by
// level exactly like the reference library; a partial range is evaluated
// with the pruned depth-first dpf.EvalRange, costing O(range + log L) PRF
// calls per key instead of the full O(L) expansion.
func (c CPUBaseline) RunRangeInto(prg dpf.PRG, keys []*dpf.Key, v TableView, lo, hi int, ctr *gpu.Counters, dst [][]uint32) error {
	if err := validateRun(keys, v, lo, hi, dst); err != nil {
		return err
	}
	bits := dpf.DomainBits(v.Rows())
	lanes := v.Lanes()
	rows := hi - lo
	job := tileJob{prg: prg, keys: keys, v: v, lo: uint64(lo), hi: uint64(hi), workers: c.Workers, ctr: ctr, expand: expandRange}
	mem := int64(len(keys)) * (int64(rows)*4 + int64(lanes)*4)
	if fullRange(v.Rows(), lo, hi) {
		job.lo, job.hi, job.expand = 0, uint64(1)<<uint(bits), expandFull
		mem = cpuMemBytes(len(keys), bits, lanes, keys[0].Early)
	}
	ctr.Alloc(mem)
	defer ctr.Free(mem)
	if err := runTiles(job, dst); err != nil {
		return err
	}
	ctr.AddRead(int64(len(keys)) * int64(rows) * int64(lanes) * 4)
	ctr.AddWrite(int64(len(keys)) * int64(lanes) * 4)
	return nil
}

// expandFull is the reference library's full level-order expansion of one
// key over the whole domain.
func expandFull(r *tileRun, key *dpf.Key, leaf []uint32) error {
	sc := getWalkScratch()
	dpf.EvalFullInto(r.prg, key, leaf, &sc.frontier)
	r.ctr.AddPRFBlocks(treeBlocks(r.bits, key.Early))
	sc.release()
	return nil
}

// Model implements Strategy. dev is unused; the CPU model prices the work
// (the reference CPU library performs the same §3.1 early termination, so
// its calibrated per-block constant re-anchors the same way).
func (c CPUBaseline) Model(_ *gpu.Device, prg dpf.PRG, bits, batch, lanes int) (Report, error) {
	early := modelEarly(bits)
	blocks := int64(batch) * treeBlocks(bits, early)
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
