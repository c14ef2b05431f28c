package experiments

import (
	"fmt"
	"time"

	"gpudpf/internal/data"
	"gpudpf/internal/dpf"
	"gpudpf/internal/model"
)

// Fig3 regenerates Figure 3: Gen vs Eval cost across table sizes. Gen runs
// on the client model (Intel Core i3), Eval on the single-threaded Xeon
// model — the point is the orders-of-magnitude gap that motivates
// accelerating Eval only.
func Fig3() (*Table, error) {
	t := &Table{
		ID:      "fig3",
		Title:   "Gen vs Eval performance (AES-128)",
		Columns: []string{"table size", "Gen (client i3)", "Eval (CPU 1t)", "Eval/Gen"},
	}
	prg := dpf.NewAESPRG()
	i3 := model.IntelCorei3()
	for _, bits := range []int{10, 14, 18, 20, 22, 24} {
		gen := i3.CPUTime(model.GenProfile(prg.CPUCyclesPerBlock(), bits, 1), 1)
		rep, err := (model.CPUBaseline{Threads: 1}).Model(nil, prg, bits, 1, 64)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("2^%d", bits),
			gen.Round(time.Microsecond).String(),
			rep.Latency.Round(10*time.Microsecond).String(),
			fmtF(rep.Latency.Seconds()/gen.Seconds()))
	}
	return t, nil
}

// Table1 regenerates Table 1: embedding table sizes for public models.
func Table1() (*Table, error) {
	t := &Table{
		ID:      "tab1",
		Title:   "Embedding table sizes for popular public datasets/models",
		Columns: []string{"application", "# entries", "entry size", "table size"},
	}
	for _, spec := range data.Table1() {
		t.AddRow(spec.Name, fmt.Sprintf("%d", spec.Entries),
			fmt.Sprintf("%dB", spec.EntryBytes), fmtBytes(spec.TableBytes()))
	}
	return t, nil
}

// Table2 regenerates Table 2: the real-world model's device-only features.
func Table2() (*Table, error) {
	t := &Table{
		ID:      "tab2",
		Title:   "Real-world recommendation model: top-5 device-only sparse features",
		Columns: []string{"# entries", "avg queries/inference", "table size (144B entries)"},
		Notes: fmt.Sprintf("temporal locality: only %.2f%% of sparse features are new per inference",
			data.RealWorldNewFeatureRate*100),
	}
	for _, f := range data.RealWorldModel() {
		t.AddRow(fmt.Sprintf("%d", f.Entries), fmtF(f.AvgQueries),
			fmtBytes(int64(f.Entries)*data.RealWorldEntryBytes))
	}
	return t, nil
}

// Fig6 regenerates Figure 6: PRF work and peak memory per strategy across
// table sizes (batch 32, 2048-bit entries).
func Fig6() (*Table, error) {
	t := &Table{
		ID:      "fig6",
		Title:   "PRFs evaluated and peak memory per parallelization strategy (B=32)",
		Columns: []string{"table size", "strategy", "PRF blocks", "peak memory"},
		Notes:   "branch-parallel pays L·logL work; level-by-level pays O(B·L) memory; membound pays neither",
	}
	dev := model.TeslaV100()
	prg := dpf.NewAESPRG()
	strats := []model.Modeler{
		model.BranchParallel{},
		model.LevelByLevel{},
		model.MemBound{K: 128, Fused: true},
	}
	for _, bits := range []int{14, 16, 18, 20, 22, 24} {
		for _, s := range strats {
			rep, err := s.Model(dev, prg, bits, 32, 64)
			if err != nil {
				t.AddRow(fmt.Sprintf("2^%d", bits), s.Name(), "-", "OOM (>16GB)")
				continue
			}
			t.AddRow(fmt.Sprintf("2^%d", bits), s.Name(),
				fmt.Sprintf("%d", rep.PRFBlocks), fmtBytes(rep.PeakMemBytes))
		}
	}
	return t, nil
}

// Fig8 regenerates Figure 8: membound memory vs table size (a) and
// utilization vs K (b).
func Fig8() (*Table, error) {
	t := &Table{
		ID:      "fig8",
		Title:   "Memory-bounded traversal: memory vs L, and utilization vs K (L=2^20, B=8)",
		Columns: []string{"sweep", "value", "peak memory", "utilization"},
	}
	dev := model.TeslaV100()
	prg := dpf.NewAESPRG()
	for _, bits := range []int{16, 18, 20, 22, 24} {
		rep, err := (model.MemBound{K: 128, Fused: true}).Model(dev, prg, bits, 8, 64)
		if err != nil {
			return nil, err
		}
		t.AddRow("L", fmt.Sprintf("2^%d", bits), fmtBytes(rep.PeakMemBytes), fmt.Sprintf("%.1f%%", rep.Utilization*100))
	}
	for _, k := range []int{8, 32, 128, 512, 1024} {
		rep, err := (model.MemBound{K: k, Fused: true}).Model(dev, prg, 20, 8, 64)
		if err != nil {
			return nil, err
		}
		t.AddRow("K", fmt.Sprintf("%d", k), fmtBytes(rep.PeakMemBytes), fmt.Sprintf("%.1f%%", rep.Utilization*100))
	}
	return t, nil
}

// Fig9 regenerates Figure 9: utilization vs batch size (a) and vs table
// size for batch-1 cooperative groups against batched execution (b).
func Fig9() (*Table, error) {
	t := &Table{
		ID:      "fig9",
		Title:   "GPU utilization vs batch size (membound, L=2^20) and vs table size (coop B=1)",
		Columns: []string{"sweep", "value", "strategy", "utilization"},
	}
	dev := model.TeslaV100()
	prg := dpf.NewAESPRG()
	mb := model.MemBound{K: 128, Fused: true}
	for _, b := range []int{1, 2, 4, 8, 16, 32, 64, 128} {
		rep, err := mb.Model(dev, prg, 20, b, 64)
		if err != nil {
			return nil, err
		}
		t.AddRow("batch", fmt.Sprintf("%d", b), rep.Strategy, fmt.Sprintf("%.1f%%", rep.Utilization*100))
	}
	for _, bits := range []int{14, 16, 18, 20, 22, 24, 26} {
		coop, err := (model.CoopGroups{}).Model(dev, prg, bits, 1, 64)
		if err != nil {
			return nil, err
		}
		batched, err := mb.Model(dev, prg, bits, 1, 64)
		if err != nil {
			return nil, err
		}
		t.AddRow("table", fmt.Sprintf("2^%d", bits), "coop-groups", fmt.Sprintf("%.1f%%", coop.Utilization*100))
		t.AddRow("table", fmt.Sprintf("2^%d", bits), "membound B=1", fmt.Sprintf("%.1f%%", batched.Utilization*100))
	}
	return t, nil
}

// Fig13 regenerates Figure 13: the latency/throughput frontier per
// strategy at 1M and 16M entries.
func Fig13() (*Table, error) {
	t := &Table{
		ID:      "fig13",
		Title:   "Throughput vs latency per GPU optimization (entry 2048b)",
		Columns: []string{"table", "strategy", "batch", "latency", "QPS"},
		Notes:   "level-by-level rows stop at its device-memory cliff; coop-groups shines on the large table",
	}
	dev := model.TeslaV100()
	prg := dpf.NewAESPRG()
	strats := []model.Modeler{
		model.BranchParallel{},
		model.LevelByLevel{},
		model.MemBound{K: 128, Fused: true},
		model.CoopGroups{},
	}
	for _, bits := range []int{20, 24} {
		for _, s := range strats {
			for b := 1; b <= 4096; b *= 8 {
				rep, err := s.Model(dev, prg, bits, b, 64)
				if err != nil {
					break // OOM at this and larger batches
				}
				t.AddRow(fmt.Sprintf("2^%d", bits), s.Name(), fmt.Sprintf("%d", b),
					rep.Latency.Round(10*time.Microsecond).String(), fmtF(rep.Throughput))
			}
		}
	}
	return t, nil
}

// Fig14 regenerates Figure 14: entry-size impact with and without operator
// fusion (1M entries).
func Fig14() (*Table, error) {
	t := &Table{
		ID:      "fig14",
		Title:   "Entry size vs latency/throughput, fusion on/off (L=2^20, B=32)",
		Columns: []string{"entry size", "fused latency", "fused QPS", "unfused latency", "unfused QPS", "fusion speedup"},
	}
	dev := model.TeslaV100()
	prg := dpf.NewAESPRG()
	for _, entryBytes := range []int{64, 128, 256, 512, 1024, 2048, 4096} {
		lanes := entryBytes / 4
		f, err := (model.MemBound{K: 128, Fused: true}).Model(dev, prg, 20, 32, lanes)
		if err != nil {
			return nil, err
		}
		u, err := (model.MemBound{K: 128, Fused: false}).Model(dev, prg, 20, 32, lanes)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmtBytes(int64(entryBytes)),
			f.Latency.Round(10*time.Microsecond).String(), fmtF(f.Throughput),
			u.Latency.Round(10*time.Microsecond).String(), fmtF(u.Throughput),
			fmt.Sprintf("%.2fx", f.Throughput/u.Throughput))
	}
	return t, nil
}

// Table4 regenerates Table 4 / Figure 15: GPU vs single- and multi-threaded
// CPU across table sizes, with key sizes.
func Table4() (*Table, error) {
	t := &Table{
		ID:      "tab4",
		Title:   "GPU (all optimizations) vs CPU baseline, AES-128, 2048-bit entries",
		Columns: []string{"# entries", "key bytes", "platform", "QPS", "latency"},
		Notes:   "paper: 16K GPU 60,347 / 1M GPU 1,358 / 4M GPU 468 QPS; >17x over 32-thread CPU on every row",
	}
	dev := model.TeslaV100()
	prg := dpf.NewAESPRG()
	for _, row := range []struct {
		bits int
		name string
	}{{14, "16K"}, {20, "1M"}, {22, "4M"}} {
		keyBytes := dpf.MarshaledSizeEarly(row.bits, 1, dpf.DefaultEarly(row.bits, 1))
		// Batch tuned for throughput within the paper's 300ms budget
		// (§5.1); our membound model needs larger batches than the
		// authors' kernels to saturate, so batch latency runs higher.
		gpuRep, err := model.TuneBatch(dev, model.Schedule(row.bits), prg, row.bits, 64, 300*time.Millisecond)
		if err != nil {
			return nil, err
		}
		t.AddRow(row.name, fmt.Sprintf("%d", keyBytes), "GPU (V100)",
			fmtF(gpuRep.Throughput), gpuRep.Latency.Round(10*time.Microsecond).String())
		for _, threads := range []int{1, 32} {
			rep, err := (model.CPUBaseline{Threads: threads}).Model(nil, prg, row.bits, 1, 64)
			if err != nil {
				return nil, err
			}
			t.AddRow(row.name, fmt.Sprintf("%d", keyBytes),
				fmt.Sprintf("CPU %d-thread", threads),
				fmtF(rep.Throughput), rep.Latency.Round(10*time.Microsecond).String())
		}
	}
	return t, nil
}

// Table5 regenerates Table 5: PRF comparison at 1M entries, batch 512.
func Table5() (*Table, error) {
	t := &Table{
		ID:      "tab5",
		Title:   "Memory-efficient GPU DPF with different PRFs (L=2^20, B=512)",
		Columns: []string{"PRF", "type", "latency", "QPS", "vs AES-128"},
		Notes:   "paper QPS: AES 965, SHA 921, ChaCha20 3,640, SipHash 7,447, HighwayHash 1,973",
	}
	dev := model.TeslaV100()
	kinds := map[string]string{
		"aes128":   "block cipher (CTR)",
		"sha256":   "hash (HMAC)",
		"chacha20": "stream cipher",
		"siphash":  "PRF",
		"highway":  "PRF",
	}
	var aesQPS float64
	reps := map[string]model.Report{}
	for _, name := range dpf.AllPRGNames() {
		prg, err := dpf.NewPRG(name)
		if err != nil {
			return nil, err
		}
		rep, err := (model.MemBound{K: 128, Fused: true}).Model(dev, prg, 20, 512, 64)
		if err != nil {
			return nil, err
		}
		reps[name] = rep
		if name == "aes128" {
			aesQPS = rep.Throughput
		}
	}
	for _, name := range dpf.AllPRGNames() {
		rep := reps[name]
		t.AddRow(name, kinds[name],
			rep.Latency.Round(100*time.Microsecond).String(),
			fmtF(rep.Throughput), fmt.Sprintf("%.2fx", rep.Throughput/aesQPS))
	}
	return t, nil
}
