package gpu

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"gpudpf/internal/model"
	"gpudpf/internal/strategy"
)

// The device-model tests below keep this package's path so their names
// stay stable while the aliases remain; they exercise package model.

func TestV100Preset(t *testing.T) {
	d := model.TeslaV100()
	if d.TotalLanes() != 5120 {
		t.Errorf("V100 lanes = %d, want 5120", d.TotalLanes())
	}
	if d.GlobalMemBytes != 16<<30 {
		t.Errorf("V100 memory = %d, want 16GiB", d.GlobalMemBytes)
	}
	if d.LaneCyclesPerSecond() < 7e12 || d.LaneCyclesPerSecond() > 7.1e12 {
		t.Errorf("V100 lane-cycles/s = %g, want ≈7.07e12", d.LaneCyclesPerSecond())
	}
}

func TestOccupancy(t *testing.T) {
	d := model.TeslaV100()
	cases := []struct {
		par  int64
		want float64
	}{
		{0, 0},
		{-5, 0},
		{1, 32.0 / 5120},      // one warp
		{32, 32.0 / 5120},     // still one warp
		{33, 64.0 / 5120},     // rounds to two warps
		{5120, 1.0},           // exactly full
		{1 << 30, 1.0},        // saturated
		{2560, 2560.0 / 5120}, // half
	}
	for _, c := range cases {
		if got := d.Occupancy(c.par); got != c.want {
			t.Errorf("Occupancy(%d) = %g, want %g", c.par, got, c.want)
		}
	}
}

// TestEstimateComputeBound: a pure-compute kernel's time should equal
// cycles / (lanes × clock) and scale down with parallelism.
func TestEstimateComputeBound(t *testing.T) {
	d := model.TeslaV100()
	p := model.KernelProfile{
		PRFBlocks: 1 << 20, Launches: 0,
		PRGCyclesPerBlock: 2500,
		Parallelism:       1 << 20,
	}
	tm, util, err := d.Estimate(p)
	if err != nil {
		t.Fatal(err)
	}
	if util != 1.0 {
		t.Errorf("util = %g, want 1.0", util)
	}
	wantSec := float64(1<<20) * 2500 / d.LaneCyclesPerSecond()
	got := tm.Seconds()
	if got < wantSec*0.99 || got > wantSec*1.01 {
		t.Errorf("time %g, want %g", got, wantSec)
	}

	// Quarter the parallelism → quadruple the time.
	p.Parallelism = 5120 / 4
	tm2, util2, err := d.Estimate(p)
	if err != nil {
		t.Fatal(err)
	}
	if util2 != 0.25 {
		t.Errorf("util = %g, want 0.25", util2)
	}
	ratio := tm2.Seconds() / tm.Seconds()
	if ratio < 3.9 || ratio > 4.1 {
		t.Errorf("time ratio %g, want 4", ratio)
	}
}

// TestEstimateMemoryBound: when byte traffic dominates, time follows the
// bandwidth term.
func TestEstimateMemoryBound(t *testing.T) {
	d := model.TeslaV100()
	p := model.KernelProfile{
		PRFBlocks: 1, ReadBytes: 9 << 30,
		PRGCyclesPerBlock: 2500,
		Parallelism:       1 << 20,
	}
	tm, _, err := d.Estimate(p)
	if err != nil {
		t.Fatal(err)
	}
	wantSec := float64(9<<30) / d.MemBandwidthBps
	if got := tm.Seconds(); got < wantSec*0.99 || got > wantSec*1.05 {
		t.Errorf("memory-bound time %g, want %g", got, wantSec)
	}
}

// TestEstimateOOM: exceeding device memory must be reported, not modeled.
func TestEstimateOOM(t *testing.T) {
	d := model.TeslaV100()
	p := model.KernelProfile{
		PeakMemBytes: d.GlobalMemBytes + 1,
		Parallelism:  128,
	}
	if _, _, err := d.Estimate(p); !errors.Is(err, model.ErrOutOfMemory) {
		t.Fatalf("err = %v, want model.ErrOutOfMemory", err)
	}
}

// TestEstimateLaunchOverhead: launches add fixed overhead.
func TestEstimateLaunchOverhead(t *testing.T) {
	d := model.TeslaV100()
	base := model.KernelProfile{PRFBlocks: 100, PRGCyclesPerBlock: 100, Parallelism: 100}
	t0, _, _ := d.Estimate(base)
	base.Launches = 10
	t1, _, _ := d.Estimate(base)
	if t1-t0 != 10*d.LaunchOverhead {
		t.Errorf("launch overhead delta = %v, want %v", t1-t0, 10*d.LaunchOverhead)
	}
}

// TestQuickEstimateMonotone: modeled time must be monotone in PRF work.
func TestQuickEstimateMonotone(t *testing.T) {
	d := model.TeslaV100()
	f := func(aRaw, bRaw uint32) bool {
		a, b := int64(aRaw%1e6)+1, int64(bRaw%1e6)+1
		if a > b {
			a, b = b, a
		}
		pa := model.KernelProfile{PRFBlocks: a, PRGCyclesPerBlock: 700, Parallelism: 4096}
		pb := pa
		pb.PRFBlocks = b
		ta, _, _ := d.Estimate(pa)
		tb, _, _ := d.Estimate(pb)
		return ta <= tb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestCountersConcurrent: the host counters are safe to add into from
// many goroutines, and the alias names strategy's type, so its snapshot is
// a strategy.Stats.
func TestCountersConcurrent(t *testing.T) {
	var c Counters
	const g = 32
	const per = 1000
	done := make(chan struct{})
	for i := 0; i < g; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for j := 0; j < per; j++ {
				c.AddPRFBlocks(1)
				c.AddRead(10)
			}
		}()
	}
	for i := 0; i < g; i++ {
		<-done
	}
	if s := c.Snapshot(); s != (strategy.Stats{PRFBlocks: g * per, ReadBytes: 10 * g * per}) {
		t.Errorf("snapshot %+v, want %d PRF blocks and %d bytes", s, g*per, 10*g*per)
	}
}

func TestCPUModelScaling(t *testing.T) {
	xeon := model.XeonGold6230()
	oneThread := xeon.CPUTime(1e9, 1)
	allThreads := xeon.CPUTime(1e9, 32)
	speedup := oneThread.Seconds() / allThreads.Seconds()
	// Table 4 shows ~17.7x on the 1M row; the model should land nearby.
	if speedup < 15 || speedup > 20 {
		t.Errorf("28-core speedup %g, want ≈17.6", speedup)
	}
	if xeon.CPUTime(2.1e9, 1) != time.Second {
		t.Errorf("1 core at 2.1GHz should take 1s for 2.1e9 cycles, got %v", xeon.CPUTime(2.1e9, 1))
	}
	if got := xeon.CPUTime(1e9, 0); got != xeon.CPUTime(1e9, 1) {
		t.Errorf("threads=0 should clamp to 1: %v", got)
	}
}

func TestGenProfileGrowsWithBits(t *testing.T) {
	prev := 0.0
	for bits := 1; bits <= 30; bits++ {
		c := model.GenProfile(320, bits, 1)
		if c <= prev {
			t.Fatalf("model.GenProfile not increasing at bits=%d", bits)
		}
		prev = c
	}
	// Gen must stay trivially cheap compared to Eval: a 2^20-domain Gen on
	// a 3GHz core is well under a millisecond (Figure 3's point).
	i3 := model.IntelCorei3()
	if lat := i3.CPUTime(model.GenProfile(320, 20, 1), 1); lat > time.Millisecond {
		t.Errorf("Gen latency %v, want < 1ms", lat)
	}
}
