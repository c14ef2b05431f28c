package strategy

import (
	"testing"
	"time"

	"gpudpf/internal/model"
)

// This file pins package model's device model to the paper's measured
// numbers (kept at this path so the test names stay stable). The
// targets are the *shapes* (ratios, orderings, crossovers); absolute values
// are required only to land within a factor-of-two band of the published
// measurements: the model stands in for hardware it cannot match exactly.

// within checks x ∈ [lo, hi].
func within(t *testing.T, name string, x, lo, hi float64) {
	t.Helper()
	if x < lo || x > hi {
		t.Errorf("%s = %.4g, want in [%.4g, %.4g]", name, x, lo, hi)
	}
}

// TestTable4CPUBaseline: Xeon single-thread 1M-entry latency ≈638ms and
// 32-thread ≈36ms with 2048-bit entries.
func TestTable4CPUBaseline(t *testing.T) {
	prf := model.AES128
	one, err := (model.CPUBaseline{Threads: 1}).Model(nil, prf, 20, 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	within(t, "cpu-1t 1M latency (ms)", float64(one.Latency.Milliseconds()), 400, 900)
	many, err := (model.CPUBaseline{Threads: 32}).Model(nil, prf, 20, 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	within(t, "cpu-32t 1M latency (ms)", float64(many.Latency.Milliseconds()), 20, 60)
}

// TestTable4GPUSpeedup: GPU throughput must beat the 32-thread CPU by >17x
// on every Table 4 row (16K, 1M, 4M entries).
func TestTable4GPUSpeedup(t *testing.T) {
	dev := model.TeslaV100()
	prf := model.AES128
	for _, bits := range []int{14, 20, 22} {
		gpuRep, err := model.TuneBatch(dev, model.Schedule(bits), prf, bits, 64, 0)
		if err != nil {
			t.Fatal(err)
		}
		cpuRep, err := (model.CPUBaseline{Threads: 32}).Model(nil, prf, bits, 64, 64)
		if err != nil {
			t.Fatal(err)
		}
		speedup := gpuRep.Throughput / cpuRep.Throughput
		if speedup < 17 {
			t.Errorf("bits=%d: GPU/CPU32 speedup %.1f, want >17 (Table 4)", bits, speedup)
		}
		if speedup > 500 {
			t.Errorf("bits=%d: speedup %.0f implausibly large", bits, speedup)
		}
	}
}

// TestTable4GPUAbsolute: the 1M-entry AES GPU throughput should land near
// the paper's 1,358 QPS.
func TestTable4GPUAbsolute(t *testing.T) {
	dev := model.TeslaV100()
	prf := model.AES128
	r, err := model.TuneBatch(dev, model.MemBound{K: 128, Fused: true}, prf, 20, 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	within(t, "GPU 1M QPS", r.Throughput, 700, 2700)
}

// TestTable5PRFOrdering: modeled QPS of model.PRFs at the paper's Table 5
// shape (1M entries, batch 512) must order siphash > chacha20 > highway > aes128 >
// sha256, and ChaCha20's speedup over AES must be in the 2.5x–5x band
// (paper: 3.77x).
func TestTable5PRFOrdering(t *testing.T) {
	dev := model.TeslaV100()
	qps := map[string]float64{}
	for _, prf := range model.PRFs {
		r, err := (model.MemBound{K: 128, Fused: true}).Model(dev, prf, 20, 512, 64)
		if err != nil {
			t.Fatal(err)
		}
		qps[prf.Name] = r.Throughput
	}
	if !(qps["siphash"] > qps["chacha20"] && qps["chacha20"] > qps["highway"] &&
		qps["highway"] > qps["aes128"] && qps["aes128"] >= qps["sha256"]) {
		t.Errorf("PRF QPS ordering violates Table 5: %v", qps)
	}
	within(t, "chacha/aes speedup", qps["chacha20"]/qps["aes128"], 2.5, 5)
	within(t, "siphash/aes speedup", qps["siphash"]/qps["aes128"], 5, 11)
}

// TestGenVsEvalGap pins Figure 3: client-side Gen is orders of magnitude
// cheaper than server-side Eval.
func TestGenVsEvalGap(t *testing.T) {
	i3 := model.IntelCorei3()
	prf := model.AES128
	genLat := i3.CPUTime(model.GenProfile(prf.CPUCyclesPerBlock, 20, 1), 1)
	evalRep, err := (model.CPUBaseline{Threads: 1}).Model(nil, prf, 20, 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	if genLat > time.Millisecond {
		t.Errorf("Gen latency %v, want < 1ms", genLat)
	}
	if ratio := evalRep.Latency.Seconds() / genLat.Seconds(); ratio < 1000 {
		t.Errorf("Eval/Gen ratio %.0f, want > 1000", ratio)
	}
}

// TestTuneBatchRespectsLatencyBudget: tuned batches must not exceed the
// budget, and tighter budgets must not increase throughput.
func TestTuneBatchRespectsLatencyBudget(t *testing.T) {
	dev := model.TeslaV100()
	prf := model.AES128
	mb := model.MemBound{K: 128, Fused: true}
	loose, err := model.TuneBatch(dev, mb, prf, 20, 64, 300*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	tight, err := model.TuneBatch(dev, mb, prf, 20, 64, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if loose.Latency > 300*time.Millisecond || tight.Latency > 50*time.Millisecond {
		t.Error("TuneBatch violated the latency budget")
	}
	if tight.Throughput > loose.Throughput {
		t.Error("tighter latency budget should not increase throughput")
	}
	// Impossible budget errors out but still reports batch 1.
	if _, err := model.TuneBatch(dev, mb, prf, 24, 64, time.Microsecond); err == nil {
		t.Error("microsecond budget at 16M entries should be infeasible")
	}
}
