package strategy

import (
	"math/rand"
	"testing"

	"gpudpf/internal/dpf"
	"gpudpf/internal/model"
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

// executors is the strategy-axis sweep of every execution test: the one
// executor at a narrow and the default frontier.
func executors() []MemBoundTree {
	return []MemBoundTree{{K: 8}, {K: 128}}
}

// TestStrategiesReconstructRows: every executor must produce shares that
// reconstruct the exact table rows, across entry widths and non-power-of-two
// row counts.
func TestStrategiesReconstructRows(t *testing.T) {
	prg := dpf.NewAESPRG()
	for _, shape := range []struct{ rows, lanes int }{
		{64, 1}, {64, 4}, {100, 7}, {256, 16}, {1000, 3},
	} {
		tab := buildTable(t, shape.rows, shape.lanes, int64(shape.rows))
		k0s, k1s, idx := genBatch(t, prg, tab, 5, int64(shape.lanes))
		for _, s := range executors() {
			var c0, c1 Counters
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

// TestWorkOptimality pins the Figure 6 claims on the early-terminated tree
// (§3.1): with G = L >> early terminal nodes, the executed memory-bounded
// descent walks 2G-2 blocks per query at every depth — a ~4× cut over the
// classic 2L-2 at the default depth — and, at the default depth the
// models price, the tree traversals do 2G-2 and branch-parallel
// G·(log L - early).
func TestWorkOptimality(t *testing.T) {
	const bits, batch = 9, 3
	prg := dpf.NewAESPRG()
	tab := buildTable(t, 1<<bits, 1, 9)
	rng := rand.New(rand.NewSource(9))
	for early := 0; early <= dpf.DefaultEarlyBits; early++ {
		g := int64(1) << uint(bits-early)
		keys := make([]*dpf.Key, batch)
		for q := range keys {
			k, _, err := dpf.GenEarly(prg, uint64(rng.Intn(tab.NumRows)), bits, []uint32{1}, early, rng)
			if err != nil {
				t.Fatal(err)
			}
			keys[q] = &k
		}
		for _, s := range executors() {
			var ctr Counters
			if _, err := Run(s, prg, keys, tab.View(), &ctr); err != nil {
				t.Fatal(err)
			}
			if got := ctr.Snapshot().PRFBlocks; got != batch*(2*g-2) {
				t.Errorf("%s K=%d early=%d: walked %d blocks, want %d", s.Name(), s.K, early, got, batch*(2*g-2))
			}
		}
		if early != dpf.DefaultEarly(bits, 1) {
			continue
		}
		for _, c := range []struct {
			m    model.Modeler
			want int64
		}{
			{model.MemBound{}, 2*g - 2},
			{model.LevelByLevel{}, 2*g - 2},
			{model.BranchParallel{}, g * int64(bits-early)},
		} {
			rep, err := c.m.Model(model.TeslaV100(), prg, bits, 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			if rep.PRFBlocks != c.want {
				t.Errorf("%s early=%d: %d blocks, want %d", c.m.Name(), early, rep.PRFBlocks, c.want)
			}
		}
	}
}

// TestMixedDepthBatchRejected: the tile loop needs depth-uniform
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
	var ctr Counters
	for _, s := range executors() {
		if _, err := Run(s, prg, []*dpf.Key{&full, &early}, tab.View(), &ctr); err == nil {
			t.Errorf("%s: mixed-depth batch accepted", s.Name())
		}
	}
}

// The tests from here on pin package model's §3.2 models; like
// calibration_test.go and multigpu_test.go they keep this package's path
// so their names stay stable while internal/gpu's aliases remain.

// TestMemoryOrdering pins the Figure 6 memory claim: for a large modeled
// shape, membound << level-by-level, and membound grows logarithmically
// with L while level-by-level grows linearly.
func TestMemoryOrdering(t *testing.T) {
	dev := model.TeslaV100()
	prg := dpf.NewAESPRG()
	const batch = 32
	mb := model.MemBound{K: 128, Fused: true}
	lvl := model.LevelByLevel{}
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
	dev := model.TeslaV100()
	prg := dpf.NewAESPRG()
	const bits = 22 // 4M rows
	// Early termination cut level-by-level's node frontier 4×, so the OOM
	// cliff moved out by roughly that factor — batch 512 is past it.
	if _, err := (model.LevelByLevel{}).Model(dev, prg, bits, 512, 64); err == nil {
		t.Error("level-by-level at 4M×batch512 should exceed 16GB")
	}
	if _, err := (model.MemBound{K: 128, Fused: true}).Model(dev, prg, bits, 512, 64); err != nil {
		t.Errorf("membound at same shape should fit: %v", err)
	}
}

// TestFusionImprovesModel: fusing must not hurt modeled latency, and must
// help clearly at large entry sizes (Figure 14).
func TestFusionImprovesModel(t *testing.T) {
	dev := model.TeslaV100()
	prg := dpf.NewAESPRG()
	const bits = 20
	for _, lanes := range []int{16, 64, 256, 1024} {
		rf, err := (model.MemBound{K: 128, Fused: true}).Model(dev, prg, bits, 32, lanes)
		if err != nil {
			t.Fatal(err)
		}
		ru, err := (model.MemBound{K: 128, Fused: false}).Model(dev, prg, bits, 32, lanes)
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
	dev := model.TeslaV100()
	prg := dpf.NewAESPRG()
	coop := model.CoopGroups{}
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
	dev := model.TeslaV100()
	prg := dpf.NewAESPRG()
	const bits = 23
	batched, err := model.TuneBatch(dev, model.MemBound{K: 128, Fused: true}, prg, bits, 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	coop, err := (model.CoopGroups{}).Model(dev, prg, bits, 1, 64)
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
	if model.Schedule(21).Name() != "membound-fused" {
		t.Error("below threshold should pick membound-fused")
	}
	if model.Schedule(22).Name() != "coop-groups" {
		t.Error("at threshold should pick coop-groups")
	}
}

// TestBatchingIncreasesUtilization pins Figure 9a.
func TestBatchingIncreasesUtilization(t *testing.T) {
	dev := model.TeslaV100()
	prg := dpf.NewAESPRG()
	mb := model.MemBound{K: 128, Fused: true}
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
