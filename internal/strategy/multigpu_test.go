package strategy

import (
	"testing"

	"gpudpf/internal/model"
)

// TestMultiGPUModelScaling pins §3.2.7: latency drops ~linearly with N and
// at a fixed batch the per-fleet utilization motivates larger batches.
func TestMultiGPUModelScaling(t *testing.T) {
	dev := model.TeslaV100()
	const bits, batch, lanes = 24, 64, 64
	base, err := (model.MultiGPU{Devices: 1}).Model(dev, model.AES128, bits, batch, lanes)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{2, 4, 8} {
		rep, err := (model.MultiGPU{Devices: n}).Model(dev, model.AES128, bits, batch, lanes)
		if err != nil {
			t.Fatal(err)
		}
		speedup := base.Latency.Seconds() / rep.Latency.Seconds()
		if speedup < float64(n)*0.7 || speedup > float64(n)*1.3 {
			t.Errorf("n=%d: latency speedup %.2f, want ≈%d", n, speedup, n)
		}
		// Total work is preserved (plus small per-shard path overhead).
		if rep.PRFBlocks < base.PRFBlocks {
			t.Errorf("n=%d: total PRF work shrank", n)
		}
	}
}
