package model

import "time"

// Device describes a GPU-class accelerator for the cost model.
type Device struct {
	// Name is a human-readable device name.
	Name string
	// SMs is the number of streaming multiprocessors.
	SMs int
	// CoresPerSM is the number of scalar lanes per SM.
	CoresPerSM int
	// ClockHz is the sustained SM clock.
	ClockHz float64
	// GlobalMemBytes is device memory capacity; exceeding it is an OOM.
	GlobalMemBytes int64
	// SharedMemPerSMBytes is the on-chip scratch per SM.
	SharedMemPerSMBytes int
	// MemBandwidthBps is sustained global-memory bandwidth in bytes/s.
	MemBandwidthBps float64
	// MaxThreadsPerSM is the occupancy limit of resident threads per SM.
	MaxThreadsPerSM int
	// WarpSize is the SIMT width; parallelism is consumed in warp
	// granules.
	WarpSize int
	// LaunchOverhead is the fixed cost of one kernel launch.
	LaunchOverhead time.Duration
}

// TeslaV100 returns the model of the NVIDIA V100 the paper benchmarks on
// (16 GB SXM2: 80 SMs × 64 FP32 lanes, 1.38 GHz, 900 GB/s HBM2).
func TeslaV100() *Device {
	return &Device{
		Name:                "NVIDIA Tesla V100-SXM2-16GB",
		SMs:                 80,
		CoresPerSM:          64,
		ClockHz:             1.38e9,
		GlobalMemBytes:      16 << 30,
		SharedMemPerSMBytes: 96 << 10,
		MemBandwidthBps:     900e9,
		MaxThreadsPerSM:     2048,
		WarpSize:            32,
		LaunchOverhead:      5 * time.Microsecond,
	}
}

// TotalLanes is the number of scalar execution lanes on the device.
func (d *Device) TotalLanes() int { return d.SMs * d.CoresPerSM }

// LaneCyclesPerSecond is the device's aggregate cycle budget.
func (d *Device) LaneCyclesPerSecond() float64 {
	return float64(d.TotalLanes()) * d.ClockHz
}

// CPUModel describes a host CPU for the baseline and client-side models.
type CPUModel struct {
	// Name is a human-readable CPU name.
	Name string
	// Cores is the number of physical cores.
	Cores int
	// ClockHz is the sustained all-core clock.
	ClockHz float64
	// ThreadScaling is the parallel efficiency at full thread count
	// (memory-bandwidth and turbo effects make it < 1).
	ThreadScaling float64
	// DenseGFLOPS is the achievable dense-math throughput used to model
	// on-device DNN inference latency.
	DenseGFLOPS float64
}

// XeonGold6230 returns the model of the paper's server CPU baseline
// (Intel Xeon Gold 6230, 28 cores @ 2.10 GHz, AES-NI).
func XeonGold6230() *CPUModel {
	return &CPUModel{
		Name:          "Intel Xeon Gold 6230 (28C @ 2.10GHz)",
		Cores:         28,
		ClockHz:       2.1e9,
		ThreadScaling: 0.63, // Table 4: 638ms -> 36ms on 32 threads
		DenseGFLOPS:   900,
	}
}

// IntelCorei3 returns the model of the paper's client device (§5.3: key
// generation and on-device DNN inference are measured on a single Intel
// Core i3 core).
func IntelCorei3() *CPUModel {
	return &CPUModel{
		Name:          "Intel Core i3 (client, 1 core)",
		Cores:         1,
		ClockHz:       3.0e9,
		ThreadScaling: 1.0,
		DenseGFLOPS:   8, // single scalar-ish core for a small MLP
	}
}

// CPUTime models the wall time of work costing the given cycles spread over
// `threads` threads on this CPU (threads beyond Cores do not help).
func (c *CPUModel) CPUTime(cycles float64, threads int) time.Duration {
	if threads < 1 {
		threads = 1
	}
	eff := 1.0
	if threads > 1 {
		// Linear interpolation of efficiency between 1 thread and full
		// subscription.
		span := float64(c.Cores - 1)
		if span > 0 {
			frac := float64(threads-1) / span
			if frac > 1 {
				frac = 1
			}
			eff = 1 - (1-c.ThreadScaling)*frac
		}
	}
	useful := float64(min(threads, c.Cores)) * eff
	secs := cycles / (c.ClockHz * useful)
	return time.Duration(secs * float64(time.Second))
}

// DenseInferTime models dense-model (MLP/LSTM cell) inference latency from
// a FLOP count.
func (c *CPUModel) DenseInferTime(flops float64) time.Duration {
	return time.Duration(flops / (c.DenseGFLOPS * 1e9) * float64(time.Second))
}
