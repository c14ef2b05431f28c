package model

import (
	"errors"
	"time"
)

// KernelProfile summarizes one kernel (or fused kernel pipeline) for the
// cost model.
type KernelProfile struct {
	// PRFBlocks is the kernel's 128-bit PRF block count.
	PRFBlocks int64
	// ReadBytes and WriteBytes are its global-memory traffic.
	ReadBytes  int64
	WriteBytes int64
	// Launches is its kernel-launch count.
	Launches int64
	// PeakMemBytes is its peak device working set.
	PeakMemBytes int64
	// PRGCyclesPerBlock is the modeled per-thread cost of one PRF block on
	// this device.
	PRGCyclesPerBlock float64
	// Parallelism is the number of independent work items the kernel
	// exposes concurrently (e.g. batch × frontier width). It bounds how
	// many lanes the device can keep busy.
	Parallelism int64
	// ArithCycles is additional non-PRF per-lane arithmetic (dot products,
	// reductions), in lane-cycles.
	ArithCycles float64
}

// ErrOutOfMemory reports that a kernel's working set exceeds device memory.
var ErrOutOfMemory = errors.New("model: working set exceeds device global memory")

// Estimate converts a kernel profile into modeled device time and achieved
// utilization using a roofline: the kernel takes the maximum of its compute
// time and its memory time, plus launch overhead. Compute time divides the
// total cycle demand over the lanes the kernel can actually occupy.
func (d *Device) Estimate(p KernelProfile) (time.Duration, float64, error) {
	if p.PeakMemBytes > d.GlobalMemBytes {
		return 0, 0, ErrOutOfMemory
	}
	util := d.Occupancy(p.Parallelism)
	activeLanes := util * float64(d.TotalLanes())
	if activeLanes < 1 {
		activeLanes = 1
	}
	cycles := float64(p.PRFBlocks)*p.PRGCyclesPerBlock + p.ArithCycles
	computeSec := cycles / (activeLanes * d.ClockHz)
	memSec := float64(p.ReadBytes+p.WriteBytes) / d.MemBandwidthBps
	sec := computeSec
	if memSec > sec {
		sec = memSec
	}
	t := time.Duration(sec*float64(time.Second)) + time.Duration(p.Launches)*d.LaunchOverhead
	return t, util, nil
}

// Occupancy returns the fraction of device lanes a kernel with the given
// exposed parallelism can occupy. Work is scheduled in warp granules, so
// small parallelism rounds up to whole warps but cannot exceed 1.0.
func (d *Device) Occupancy(parallelism int64) float64 {
	if parallelism <= 0 {
		return 0
	}
	warps := (parallelism + int64(d.WarpSize) - 1) / int64(d.WarpSize)
	lanes := warps * int64(d.WarpSize)
	total := int64(d.TotalLanes())
	if lanes >= total {
		return 1.0
	}
	return float64(lanes) / float64(total)
}

// GenProfile models client-side key generation: Gen walks one root-to-leaf
// path expanding both parties per level (2 Expand calls = 4 blocks/level)
// plus the final conversion.
func GenProfile(cpuCyclesPerBlock float64, bits, lanes int) float64 {
	blocks := float64(4*bits + 2*convertBlocksModel(lanes))
	// GGM bookkeeping roughly doubles the pure PRF cost on a scalar core.
	return blocks * cpuCyclesPerBlock * 2
}

func convertBlocksModel(lanes int) int {
	if lanes <= 4 {
		return 1
	}
	return (lanes*4 + 15) / 16
}
