package strategy

import (
	"testing"

	"gpudpf/internal/dpf"
	"gpudpf/internal/gpu"
)

// TestMultiGPUCorrectness: sharded evaluation reconstructs exact rows for
// shard counts that do and do not divide the domain evenly.
func TestMultiGPUCorrectness(t *testing.T) {
	prg := dpf.NewAESPRG()
	tab := buildTable(t, 500, 5, 21)
	k0s, k1s, idx := genBatch(t, prg, tab, 4, 22)
	for _, n := range []int{1, 2, 3, 4, 8} {
		s := MultiGPU{Devices: n}
		var c0, c1 gpu.Counters
		a0, err := Run(s, prg, k0s, tab.View(), &c0)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		a1, err := Run(s, prg, k1s, tab.View(), &c1)
		if err != nil {
			t.Fatal(err)
		}
		for q := range idx {
			want := tab.Row(int(idx[q]))
			for l := range want {
				if a0[q][l]+a1[q][l] != want[l] {
					t.Fatalf("n=%d q=%d lane=%d: reconstruction failed", n, q, l)
				}
			}
		}
	}
}

// TestMultiGPUMatchesSingle: with one device the answers equal the fused
// membound strategy's.
func TestMultiGPUMatchesSingle(t *testing.T) {
	prg := dpf.NewChaChaPRG()
	tab := buildTable(t, 256, 2, 23)
	k0s, _, _ := genBatch(t, prg, tab, 3, 24)
	var c1, c2 gpu.Counters
	a, err := Run(MultiGPU{Devices: 1}, prg, k0s, tab.View(), &c1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(MemBoundTree{K: 128, Fused: true}, prg, k0s, tab.View(), &c2)
	if err != nil {
		t.Fatal(err)
	}
	for q := range a {
		for l := range a[q] {
			if a[q][l] != b[q][l] {
				t.Fatal("single-device multigpu diverges from membound")
			}
		}
	}
}

// TestMultiGPUModelScaling pins §3.2.7: latency drops ~linearly with N and
// at a fixed batch the per-fleet utilization motivates larger batches.
func TestMultiGPUModelScaling(t *testing.T) {
	dev := gpu.TeslaV100()
	prg := dpf.NewAESPRG()
	const bits, batch, lanes = 24, 64, 64
	base, err := (MultiGPU{Devices: 1}).Model(dev, prg, bits, batch, lanes)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{2, 4, 8} {
		rep, err := (MultiGPU{Devices: n}).Model(dev, prg, bits, batch, lanes)
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

// TestMultiGPUValidation: too many shards for the domain must error.
func TestMultiGPUValidation(t *testing.T) {
	prg := dpf.NewAESPRG()
	tab := buildTable(t, 4, 1, 25) // domain 4
	k0s, _, _ := genBatch(t, prg, tab, 1, 26)
	var ctr gpu.Counters
	if _, err := Run(MultiGPU{Devices: 8}, prg, k0s, tab.View(), &ctr); err == nil {
		t.Error("8 shards over a 4-leaf domain accepted")
	}
}
