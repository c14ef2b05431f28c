package strategy

import (
	"sync"

	"gpudpf/internal/dpf"
	"gpudpf/internal/gpu"
)

// CoopGroups is the paper's batch/table-size-aware scheduling (§3.2.5): for
// very large tables a *single* DPF already saturates the device, so all
// blocks cooperate on one DPF at a time (CUDA cooperative groups provide
// the required grid-wide barrier per level). Queries in the batch execute
// back to back, which slashes per-query latency on huge tables; on small
// tables the per-level grid synchronization dominates and utilization
// collapses — exactly Figure 9b.
type CoopGroups struct{}

// Name implements Strategy.
func (CoopGroups) Name() string { return "coop-groups" }

// CoopThresholdBits is the table size (log2) above which the paper selects
// cooperative groups over batched execution (2^22 entries, §3.2.5).
const CoopThresholdBits = 22

// Schedule picks the execution strategy the paper's scheduler would: the
// fused memory-bounded traversal below the threshold, cooperative groups at
// or above it.
func Schedule(bits int) Strategy {
	if bits >= CoopThresholdBits {
		return CoopGroups{}
	}
	return MemBoundTree{K: DefaultK, Fused: true}
}

// coopMemBytes models one query's working set: the two widest ping-pong
// level buffers (the terminal frontier is domain >> early nodes), exactly
// one query resident at a time.
func coopMemBytes(bits, lanes, early int) int64 {
	frontier := int64(1) << uint(bits-early)
	return frontier*nodeBytes + frontier/2*nodeBytes + int64(lanes)*4
}

// RunRangeInto implements Strategy. Queries execute back to back — one
// query owns the whole device at a time, which is cooperative groups' point
// (§3.2.5) and why the dot product here stays per-query rather than
// query-tiled. Each level advances through batched PRF calls
// (dpf.StepBothBatch per chunk) over pooled ping-pong buffers. The
// grid-wide level expansion is inherently whole-tree, so the range
// restricts only the leaf dot product — like level-by-level, sharding buys
// dot-product parallelism here, not PRF savings.
func (CoopGroups) RunRangeInto(prg dpf.PRG, keys []*dpf.Key, v TableView, rlo, rhi int, ctr *gpu.Counters, dst [][]uint32) error {
	if err := validateRun(keys, v, rlo, rhi, dst); err != nil {
		return err
	}
	bits := dpf.DomainBits(v.Rows())
	lanes := v.Lanes()
	early := keys[0].Early
	mem := coopMemBytes(bits, lanes, early)
	ctr.Alloc(mem)
	defer ctr.Free(mem)

	depth := bits - early
	frontier := 1 << uint(depth)
	sc := getCoopScratch()
	cur, curT, next, nextT := sc.growPing(frontier)
	for q, k := range keys {
		cur[0], curT[0] = k.Root, k.Party
		n := 1
		for level := 0; level < depth; level++ {
			cw := k.CWs[level]
			seeds, ts, out, outT := cur[:n], curT[:n], next[:2*n], nextT[:2*n]
			gpu.ParallelForChunked(n, 0, func(lo, hi int) {
				csc := getWalkScratch()
				dpf.StepBothBatch(prg, seeds[lo:hi], ts[lo:hi], cw, out[2*lo:2*hi], outT[2*lo:2*hi], &csc.batch)
				ctr.AddPRFBlocks(int64(hi-lo) * dpf.BlocksPerExpand)
				csc.release()
			})
			cur, next = next, cur
			curT, nextT = nextT, curT
			n *= 2
			ctr.AddLaunch() // grid-wide barrier per level
		}
		ans := dst[q]
		var mu sync.Mutex
		var firstErr error
		gpu.ParallelForChunked(rhi-rlo, 0, func(lo, hi int) {
			csc := getWalkScratch()
			local := csc.growLocal(1, lanes)[0]
			leaves := csc.growBuf(hi - lo)
			// Chunk boundaries cut through terminal groups wherever they
			// like; the group conversion clips.
			dpf.LeafRangeInto(k, cur[:n], curT[:n], uint64(rlo+lo), uint64(rlo+hi), leaves)
			// The worker's row span streams through the view's chunk
			// iterator — one run for an in-RAM table, several for an
			// overlaid or paged one.
			err := v.Chunks(rlo+lo, rlo+hi, func(ch Chunk) error {
				for j := 0; j < len(ch.Data)/lanes; j++ {
					accumulateRow(local, leaves[ch.Row+j-rlo-lo], ch.Data[j*lanes:(j+1)*lanes])
				}
				return nil
			})
			mu.Lock()
			if err != nil && firstErr == nil {
				firstErr = err
			}
			for i := range ans {
				ans[i] += local[i]
			}
			mu.Unlock()
			csc.release()
		})
		if firstErr != nil {
			sc.release()
			return firstErr
		}
	}
	sc.release()
	ctr.AddRead(int64(len(keys)) * (int64(rhi-rlo)*int64(lanes)*4 + int64(frontier)*nodeBytes))
	ctr.AddWrite(int64(len(keys)) * (int64(frontier)*2*nodeBytes + int64(lanes)*4))
	return nil
}

// Model implements Strategy. Latency is summed per level because the
// exposed parallelism is the level width: narrow levels near the root leave
// the device mostly idle, and every level pays a grid-sync (launch)
// overhead.
func (CoopGroups) Model(dev *gpu.Device, prg dpf.PRG, bits, batch, lanes int) (Report, error) {
	domain := int64(1) << uint(bits)
	early := modelEarly(bits)
	if coopMemBytes(bits, lanes, early) > dev.GlobalMemBytes {
		return Report{}, gpu.ErrOutOfMemory
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
		Strategy:     CoopGroups{}.Name(),
		PRG:          prg.Name(),
		Bits:         bits,
		Batch:        batch,
		Lanes:        lanes,
		PRFBlocks:    int64(batch) * treeBlocks(bits, early),
		PeakMemBytes: coopMemBytes(bits, lanes, early),
		Latency:      lat,
		Utilization:  util,
	}
	if lat > 0 {
		r.Throughput = float64(batch) / lat.Seconds()
	}
	return r, nil
}
