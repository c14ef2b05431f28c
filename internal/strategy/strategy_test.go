package strategy

import (
	"math/rand"
	"testing"

	"gpudpf/internal/dpf"
	"gpudpf/internal/gpu"
)

// buildTable fills a table with deterministic pseudo-random content.
func buildTable(t *testing.T, rows, lanes int, seed int64) *Table {
	t.Helper()
	tab, err := NewTable(rows, lanes)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := range tab.Data {
		tab.Data[i] = rng.Uint32()
	}
	return tab
}

// genBatch creates a batch of key pairs for random indices within the table.
func genBatch(t *testing.T, prg dpf.PRG, tab *Table, batch int, seed int64) (k0s, k1s []*dpf.Key, idx []uint64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for q := 0; q < batch; q++ {
		alpha := uint64(rng.Intn(tab.NumRows))
		a, b, err := dpf.Gen(prg, alpha, tab.Bits(), []uint32{1}, rng)
		if err != nil {
			t.Fatal(err)
		}
		k0s = append(k0s, &a)
		k1s = append(k1s, &b)
		idx = append(idx, alpha)
	}
	return
}

func allStrategies() []Strategy {
	return []Strategy{
		BranchParallel{},
		LevelByLevel{},
		MemBoundTree{K: 8, Fused: true},
		MemBoundTree{K: 8, Fused: false},
		MemBoundTree{K: 128, Fused: true},
		CoopGroups{},
		MultiGPU{Devices: 2},
		CPUBaseline{Threads: 1},
		CPUBaseline{Threads: 2},
	}
}

// TestStrategiesReconstructRows: every strategy must produce shares that
// reconstruct the exact table rows, across entry widths and non-power-of-two
// row counts.
func TestStrategiesReconstructRows(t *testing.T) {
	prg := dpf.NewAESPRG()
	for _, shape := range []struct{ rows, lanes int }{
		{64, 1}, {64, 4}, {100, 7}, {256, 16}, {1000, 3},
	} {
		tab := buildTable(t, shape.rows, shape.lanes, int64(shape.rows))
		k0s, k1s, idx := genBatch(t, prg, tab, 5, int64(shape.lanes))
		for _, s := range allStrategies() {
			var c0, c1 gpu.Counters
			a0, err := Run(s, prg, k0s, tab.View(), &c0)
			if err != nil {
				t.Fatalf("%s rows=%d: %v", s.Name(), shape.rows, err)
			}
			a1, err := Run(s, prg, k1s, tab.View(), &c1)
			if err != nil {
				t.Fatal(err)
			}
			for q := range idx {
				want := tab.Row(int(idx[q]))
				for l := 0; l < tab.Lanes; l++ {
					got := a0[q][l] + a1[q][l]
					if got != want[l] {
						t.Fatalf("%s rows=%d lanes=%d q=%d lane=%d: got %d want %d",
							s.Name(), shape.rows, shape.lanes, q, l, got, want[l])
					}
				}
			}
		}
	}
}

// TestRunCountsMatchModel pins the analytic count formulas to the real
// execution's counted totals (PRF blocks exactly; peak memory exactly since
// strategies allocate their modeled working set).
func TestRunCountsMatchModel(t *testing.T) {
	prg := dpf.NewChaChaPRG()
	dev := gpu.TeslaV100()
	const rows = 256 // power of two so the formulas are exact
	const lanes = 4
	tab := buildTable(t, rows, lanes, 5)
	for _, batch := range []int{1, 3, 8} {
		k0s, _, _ := genBatch(t, prg, tab, batch, 77)
		for _, s := range allStrategies() {
			var ctr gpu.Counters
			if _, err := Run(s, prg, k0s, tab.View(), &ctr); err != nil {
				t.Fatal(err)
			}
			got := ctr.Snapshot()
			model, err := s.Model(dev, prg, tab.Bits(), batch, lanes)
			if err != nil {
				t.Fatalf("%s: %v", s.Name(), err)
			}
			if got.PRFBlocks != model.PRFBlocks {
				t.Errorf("%s batch=%d: counted %d PRF blocks, model %d",
					s.Name(), batch, got.PRFBlocks, model.PRFBlocks)
			}
			if got.PeakMemBytes != model.PeakMemBytes {
				t.Errorf("%s batch=%d: counted peak %d, model %d",
					s.Name(), batch, got.PeakMemBytes, model.PeakMemBytes)
			}
		}
	}
}

// TestWorkOptimality pins the Figure 6 claims on the early-terminated tree
// (§3.1): with G = L >> early terminal nodes, tree strategies do 2G-2
// blocks per query — a ~4× cut over the classic 2L-2 for default scalar
// keys — and branch-parallel does G·(log L - early).
func TestWorkOptimality(t *testing.T) {
	prg := dpf.NewAESPRG()
	tab := buildTable(t, 512, 1, 9)
	k0s, _, _ := genBatch(t, prg, tab, 1, 3)
	bits := tab.Bits()
	early := k0s[0].Early
	if early != dpf.DefaultEarlyBits {
		t.Fatalf("default keys carry early=%d, want %d", early, dpf.DefaultEarlyBits)
	}
	groups := int64(1) << uint(bits-early)

	for _, s := range allStrategies() {
		want := 2*groups - 2 // optimal
		switch s.(type) {
		case BranchParallel:
			want = groups * int64(bits-early) // G·depth
		case MultiGPU:
			continue // every device re-derives its root-to-shard path (TestRunCountsMatchModel)
		}
		var ctr gpu.Counters
		if _, err := Run(s, prg, k0s, tab.View(), &ctr); err != nil {
			t.Fatal(err)
		}
		if got := ctr.Snapshot().PRFBlocks; got != want {
			t.Errorf("%s: %d blocks, want %d", s.Name(), got, want)
		}
	}

	// Explicit full-depth (wire v1) keys still do the classic counts.
	rng := rand.New(rand.NewSource(91))
	v1, _, err := dpf.GenEarly(prg, 7, bits, []uint32{1}, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	domain := int64(1) << uint(bits)
	var v1ctr gpu.Counters
	if _, err := Run(MemBoundTree{K: 16, Fused: true}, prg, []*dpf.Key{&v1}, tab.View(), &v1ctr); err != nil {
		t.Fatal(err)
	}
	if got := v1ctr.Snapshot().PRFBlocks; got != 2*domain-2 {
		t.Errorf("full-depth key: %d blocks, want %d", got, 2*domain-2)
	}
}

// TestMixedDepthBatchRejected: the tiled walkers need depth-uniform
// batches; a batch mixing wire-v1 and wire-v2 keys must fail validation,
// not silently corrupt answers.
func TestMixedDepthBatchRejected(t *testing.T) {
	prg := dpf.NewAESPRG()
	tab := buildTable(t, 64, 2, 71)
	rng := rand.New(rand.NewSource(72))
	full, _, err := dpf.GenEarly(prg, 3, tab.Bits(), []uint32{1}, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	early, _, err := dpf.GenEarly(prg, 9, tab.Bits(), []uint32{1}, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	var ctr gpu.Counters
	for _, s := range allStrategies() {
		if _, err := Run(s, prg, []*dpf.Key{&full, &early}, tab.View(), &ctr); err == nil {
			t.Errorf("%s: mixed-depth batch accepted", s.Name())
		}
	}
}

// TestMemoryOrdering pins the Figure 6 memory claim: for a large modeled
// shape, membound << level-by-level, and membound grows logarithmically
// with L while level-by-level grows linearly.
func TestMemoryOrdering(t *testing.T) {
	dev := gpu.TeslaV100()
	prg := dpf.NewAESPRG()
	const batch = 32
	mb := MemBoundTree{K: 128, Fused: true}
	lvl := LevelByLevel{}
	var prevMB, prevLvl int64
	for _, bits := range []int{14, 16, 18, 20} {
		rm, err := mb.Model(dev, prg, bits, batch, 64)
		if err != nil {
			t.Fatal(err)
		}
		rl, err := lvl.Model(dev, prg, bits, batch, 64)
		if err != nil {
			t.Fatal(err)
		}
		// Early termination shrinks level-by-level's node frontier 4×
		// (its leaf vector stays O(L)), so the gap at the smallest shape
		// is ~6×; it widens with bits as the linear terms dominate.
		if rm.PeakMemBytes*5 > rl.PeakMemBytes {
			t.Errorf("bits=%d: membound peak %d not ≪ level peak %d", bits, rm.PeakMemBytes, rl.PeakMemBytes)
		}
		if prevLvl > 0 {
			lvlGrowth := float64(rl.PeakMemBytes) / float64(prevLvl)
			mbGrowth := float64(rm.PeakMemBytes) / float64(prevMB)
			if lvlGrowth < 3.5 { // 4x table → ~4x memory
				t.Errorf("bits=%d: level-by-level growth %.2f, want ≈4", bits, lvlGrowth)
			}
			if mbGrowth > 1.5 { // logarithmic growth
				t.Errorf("bits=%d: membound growth %.2f, want ≈1", bits, mbGrowth)
			}
		}
		prevMB, prevLvl = rm.PeakMemBytes, rl.PeakMemBytes
	}
}

// TestLevelByLevelOOM: at paper scale, level-by-level must hit device OOM at
// batch sizes membound handles easily (the Figure 13 cliff).
func TestLevelByLevelOOM(t *testing.T) {
	dev := gpu.TeslaV100()
	prg := dpf.NewAESPRG()
	const bits = 22 // 4M rows
	// Early termination cut level-by-level's node frontier 4×, so the OOM
	// cliff moved out by roughly that factor — batch 512 is past it.
	if _, err := (LevelByLevel{}).Model(dev, prg, bits, 512, 64); err == nil {
		t.Error("level-by-level at 4M×batch512 should exceed 16GB")
	}
	if _, err := (MemBoundTree{K: 128, Fused: true}).Model(dev, prg, bits, 512, 64); err != nil {
		t.Errorf("membound at same shape should fit: %v", err)
	}
}

// TestFusionImprovesModel: fusing must not hurt modeled latency, and must
// help clearly at large entry sizes (Figure 14).
func TestFusionImprovesModel(t *testing.T) {
	dev := gpu.TeslaV100()
	prg := dpf.NewAESPRG()
	const bits = 20
	for _, lanes := range []int{16, 64, 256, 1024} {
		rf, err := (MemBoundTree{K: 128, Fused: true}).Model(dev, prg, bits, 32, lanes)
		if err != nil {
			t.Fatal(err)
		}
		ru, err := (MemBoundTree{K: 128, Fused: false}).Model(dev, prg, bits, 32, lanes)
		if err != nil {
			t.Fatal(err)
		}
		if rf.Latency > ru.Latency {
			t.Errorf("lanes=%d: fused %v slower than unfused %v", lanes, rf.Latency, ru.Latency)
		}
	}
}

// TestCoopVsBatchedUtilization pins Figure 9b: cooperative groups reach
// high utilization only on very large tables; batched membound wins small
// tables.
func TestCoopVsBatchedUtilization(t *testing.T) {
	dev := gpu.TeslaV100()
	prg := dpf.NewAESPRG()
	coop := CoopGroups{}
	small, err := coop.Model(dev, prg, 14, 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	large, err := coop.Model(dev, prg, 24, 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	if small.Utilization > 0.5 {
		t.Errorf("coop util on 16K table = %.2f, want low", small.Utilization)
	}
	if large.Utilization < 0.6 {
		t.Errorf("coop util on 16M table = %.2f, want high", large.Utilization)
	}
	if large.Utilization <= small.Utilization {
		t.Error("coop utilization should grow with table size")
	}
}

// TestCoopImprovesLargeTableLatency pins §3.2.5: on ≥2^22 tables coop's
// single-query latency beats batched execution's batch latency without
// giving up much throughput.
func TestCoopImprovesLargeTableLatency(t *testing.T) {
	dev := gpu.TeslaV100()
	prg := dpf.NewAESPRG()
	const bits = 23
	batched, err := TuneBatch(dev, MemBoundTree{K: 128, Fused: true}, prg, bits, 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	coop, err := (CoopGroups{}).Model(dev, prg, bits, 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	if coop.Latency >= batched.Latency {
		t.Errorf("coop latency %v not below batched %v", coop.Latency, batched.Latency)
	}
	if coop.Throughput < batched.Throughput/3 {
		t.Errorf("coop throughput %.0f collapsed vs batched %.0f", coop.Throughput, batched.Throughput)
	}
}

// TestSchedule pins the 2^22 threshold.
func TestSchedule(t *testing.T) {
	if Schedule(21).Name() != "membound-fused" {
		t.Error("below threshold should pick membound-fused")
	}
	if Schedule(22).Name() != "coop-groups" {
		t.Error("at threshold should pick coop-groups")
	}
}

// TestBatchingIncreasesUtilization pins Figure 9a.
func TestBatchingIncreasesUtilization(t *testing.T) {
	dev := gpu.TeslaV100()
	prg := dpf.NewAESPRG()
	mb := MemBoundTree{K: 128, Fused: true}
	prev := -1.0
	for _, b := range []int{1, 4, 16, 64} {
		r, err := mb.Model(dev, prg, 20, b, 64)
		if err != nil {
			t.Fatal(err)
		}
		if r.Utilization < prev {
			t.Errorf("batch=%d: utilization %.3f decreased", b, r.Utilization)
		}
		prev = r.Utilization
	}
	if prev != 1.0 {
		t.Errorf("batch=64,K=128 should saturate: util=%.3f", prev)
	}
}
