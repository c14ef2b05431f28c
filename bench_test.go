// Benchmarks: one target per paper table/figure (internal/experiments
// holds the per-experiment index). These measure the *real* Go
// implementation on the host — key generation, tree expansion, the
// executor, the protocol, and the co-design planner. The modeled V100/Xeon numbers that regenerate the
// paper's absolute values come from internal/experiments (cmd/benchall);
// the benchmarks here validate that the real code paths behind those
// models run, scale, and allocate sensibly.
package gpudpf_test

import (
	"fmt"
	"math/rand"
	randv2 "math/rand/v2"
	"testing"

	"gpudpf/internal/batchpir"
	"gpudpf/internal/codesign"
	"gpudpf/internal/core"
	"gpudpf/internal/data"
	"gpudpf/internal/dpf"
	"gpudpf/internal/experiments"
	"gpudpf/internal/ml"
	"gpudpf/internal/model"
	"gpudpf/internal/netsim"
	"gpudpf/internal/pir"
	"gpudpf/internal/seedbaseline"
	"gpudpf/internal/strategy"
)

func benchTable(b *testing.B, rows, lanes int) *strategy.Table {
	b.Helper()
	tab, err := strategy.NewTable(rows, lanes)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := range tab.Data {
		tab.Data[i] = rng.Uint32()
	}
	return tab
}

func benchKeys(b *testing.B, prg dpf.PRG, tab *strategy.Table, batch int) []*dpf.Key {
	b.Helper()
	rng := rand.New(rand.NewSource(2))
	keys := make([]*dpf.Key, batch)
	for q := range keys {
		k0, _, err := dpf.Gen(prg, uint64(rng.Intn(tab.NumRows)), tab.Bits(), 1, rng)
		if err != nil {
			b.Fatal(err)
		}
		keys[q] = &k0
	}
	return keys
}

// benchKeysEarly is benchKeys at an explicit early-termination depth (0 =
// full-depth wire-v1 keys, what the frozen seed baseline expects).
func benchKeysEarly(b *testing.B, prg dpf.PRG, tab *strategy.Table, batch, early int) []*dpf.Key {
	b.Helper()
	rng := rand.New(rand.NewSource(2))
	keys := make([]*dpf.Key, batch)
	for q := range keys {
		k0, _, err := dpf.GenEarly(prg, uint64(rng.Intn(tab.NumRows)), tab.Bits(), 1, early, rng)
		if err != nil {
			b.Fatal(err)
		}
		keys[q] = &k0
	}
	return keys
}

// BenchmarkTiledAnswer compares the seed per-query hot path (the frozen
// internal/seedbaseline walk — one scalar Expand per tree node, one full
// table pass per query) against the tiled/batched execution across batch
// sizes, on a 2^16-row table of 64-byte entries.
//
// The "tiled" case is the restructured MemBoundTree hot path: batched PRF
// calls (whole frontiers per kernel call instead of one Expand per
// node), pooled frontier/leaf buffers, one streaming
// table pass per tile of 32 queries (accumulateTile), and the default
// early-terminated keys (§3.1): the walk stops 2 levels up and each
// terminal seed converts into four leaf lanes, ~4× less PRF work than the
// baseline's full-depth walk. The seed baseline predates the v2 wire
// format, so it evaluates full-depth keys for the same indices. At batch
// ≥ 32 the tiled path must be ≥ 2× the per-query throughput;
// cmd/benchjson runs the same comparison programmatically, emits
// BENCH_hotpath.json, and (in CI) gates regressions against the committed
// copy.
func BenchmarkTiledAnswer(b *testing.B) {
	const rows, lanes = 1 << 16, 16
	prg := dpf.NewAESPRG()
	tab := benchTable(b, rows, lanes)
	for _, batch := range []int{1, 8, 32, 128} {
		v1Keys := benchKeysEarly(b, prg, tab, batch, 0)
		keys := benchKeys(b, prg, tab, batch)
		b.Run(fmt.Sprintf("perquery/B=%d", batch), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(batch) * rows * lanes * 4)
			for i := 0; i < b.N; i++ {
				_ = seedbaseline.Run(prg, v1Keys, tab, 128)
			}
		})
		b.Run(fmt.Sprintf("tiled/B=%d", batch), func(b *testing.B) {
			var s strategy.Strategy = strategy.MemBoundTree{K: 128}
			b.ReportAllocs()
			b.SetBytes(int64(batch) * rows * lanes * 4)
			for i := 0; i < b.N; i++ {
				var ctr strategy.Counters
				if _, err := strategy.Run(s, prg, keys, tab.View(), &ctr); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEvalFullInto measures one query's full-domain expansion, the
// terminal conversion fused into the final tree step as the hot path runs
// it, at the answer benchmark's 2^16-leaf domain. dpf's
// BenchmarkStepLeafBatch128 compares the fused step with the unfused one.
func BenchmarkEvalFullInto(b *testing.B) {
	const bits = 16
	prg := dpf.NewAESPRG()
	rng := rand.New(rand.NewSource(5))
	k0, _, err := dpf.Gen(prg, 77, bits, 1, rng)
	if err != nil {
		b.Fatal(err)
	}
	var sc dpf.FrontierScratch
	out := make([]uint32, 1<<bits)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dpf.EvalFullInto(prg, &k0, out, &sc)
	}
}

// BenchmarkFig3Gen measures client-side key generation (Figure 3's cheap
// half) across domain sizes.
func BenchmarkFig3Gen(b *testing.B) {
	prg := dpf.NewAESPRG()
	rng := rand.New(rand.NewSource(3))
	for _, bits := range []int{10, 16, 20, 24} {
		b.Run(fmt.Sprintf("bits=%d", bits), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := dpf.Gen(prg, 123, bits, 1, rng); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig3Eval measures full-domain expansion (Figure 3's expensive
// half).
func BenchmarkFig3Eval(b *testing.B) {
	prg := dpf.NewAESPRG()
	rng := rand.New(rand.NewSource(4))
	for _, bits := range []int{10, 14, 16} {
		k0, _, err := dpf.Gen(prg, 7, bits, 1, rng)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("bits=%d", bits), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = dpf.EvalFull(prg, &k0)
			}
		})
	}
}

// BenchmarkFig6Strategies exercises the analytic model of each of
// Figure 6's parallelization strategies at the figure's shape (B=32,
// 2^20 rows). Only MemBoundTree executes; the benchmarks below run it.
func BenchmarkFig6Strategies(b *testing.B) {
	dev := model.TeslaV100()
	for _, s := range []model.Modeler{
		model.BranchParallel{},
		model.LevelByLevel{},
		model.MemBound{K: 128, Fused: true},
		model.CoopGroups{},
	} {
		b.Run(s.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := s.Model(dev, model.AES128, 20, 32, 64); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig8KSweep measures the memory-bounded traversal across
// frontier widths (Figure 8b's ablation).
func BenchmarkFig8KSweep(b *testing.B) {
	prg := dpf.NewAESPRG()
	tab := benchTable(b, 4096, 16)
	keys := benchKeys(b, prg, tab, 2)
	for _, k := range []int{8, 32, 128, 512} {
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			var s strategy.Strategy = strategy.MemBoundTree{K: k}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var ctr strategy.Counters
				if _, err := strategy.Run(s, prg, keys, tab.View(), &ctr); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig9Batch measures batched execution across batch sizes
// (Figure 9a).
func BenchmarkFig9Batch(b *testing.B) {
	prg := dpf.NewAESPRG()
	tab := benchTable(b, 4096, 16)
	for _, batch := range []int{1, 4, 16} {
		keys := benchKeys(b, prg, tab, batch)
		b.Run(fmt.Sprintf("B=%d", batch), func(b *testing.B) {
			var s strategy.Strategy = strategy.MemBoundTree{K: 128}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var ctr strategy.Counters
				if _, err := strategy.Run(s, prg, keys, tab.View(), &ctr); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig13Model exercises the analytic throughput/latency model the
// Figure 13 frontier is drawn from.
func BenchmarkFig13Model(b *testing.B) {
	dev := model.TeslaV100()
	s := model.MemBound{K: 128, Fused: true}
	for i := 0; i < b.N; i++ {
		if _, err := s.Model(dev, model.AES128, 20, 64, 64); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4CPU measures the host executor with one worker and with
// 32 (Table 4's CPU rows, at host scale; the modeled Xeon rows come from
// model.CPUBaseline's Model).
func BenchmarkTable4CPU(b *testing.B) {
	prg := dpf.NewAESPRG()
	tab := benchTable(b, 16384, 64) // the 16K row of Table 4
	keys := benchKeys(b, prg, tab, 1)
	for _, workers := range []int{1, 32} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var s strategy.Strategy = strategy.MemBoundTree{K: 128, Workers: workers}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var ctr strategy.Counters
				if _, err := strategy.Run(s, prg, keys, tab.View(), &ctr); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig11EndToEnd runs a real private inference through the core
// service (the protocol behind Figure 11/Table 3).
func BenchmarkFig11EndToEnd(b *testing.B) {
	const items, dim = 2048, 16
	freq := make([]int64, items)
	for i := range freq {
		freq[i] = int64(items - i)
	}
	layout, err := codesign.BuildLayout(items, dim, freq, nil, codesign.Params{
		C: 0, HotRows: 128, QHot: 4, QFull: 8,
	})
	if err != nil {
		b.Fatal(err)
	}
	emb := make([][]float32, items)
	for i := range emb {
		emb[i] = make([]float32, dim)
	}
	svc, err := core.New(core.Config{Layout: layout, Freq: freq, Link: netsim.LAN(), Seed: 5}, emb)
	if err != nil {
		b.Fatal(err)
	}
	wanted := []uint64{1, 50, 400, 900, 1500}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := svc.FetchEmbeddings(wanted); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig12Trace measures the latency-model bookkeeping per inference
// (Figure 12's breakdown machinery).
func BenchmarkFig12Trace(b *testing.B) {
	link := netsim.FourG()
	for i := 0; i < b.N; i++ {
		_ = link.RoundTrip(10<<10, 20<<10)
	}
}

// BenchmarkFig16Plan measures the co-design inference planner (the per-
// inference client work behind Figures 16–20).
func BenchmarkFig16Plan(b *testing.B) {
	const items = 16384
	freq := make([]int64, items)
	co := make([][]uint64, items)
	for i := range freq {
		freq[i] = int64(items - i)
		if i+1 < items {
			co[i] = []uint64{uint64(i + 1)}
		}
	}
	layout, err := codesign.BuildLayout(items, 16, freq, co, codesign.Params{
		C: 2, HotRows: 1024, QHot: 8, QFull: 32,
	})
	if err != nil {
		b.Fatal(err)
	}
	rng := randv2.New(randv2.NewPCG(6, 0))
	wanted := make([]uint64, 24)
	for i := range wanted {
		wanted[i] = uint64(rng.IntN(items))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := layout.Plan(wanted, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig17GridPoint measures one grid-search point: layout build +
// cost model (Figure 17's sweep unit).
func BenchmarkFig17GridPoint(b *testing.B) {
	const items = 8192
	freq := make([]int64, items)
	for i := range freq {
		freq[i] = int64(items - i)
	}
	for i := 0; i < b.N; i++ {
		l, err := codesign.BuildLayout(items, 16, freq, nil, codesign.Params{
			C: 0, HotRows: 819, QHot: 8, QFull: 16,
		})
		if err != nil {
			b.Fatal(err)
		}
		_ = l.Cost()
	}
}

// BenchmarkFig18LMScore measures the LM quality evaluation behind
// Figure 18's points.
func BenchmarkFig18LMScore(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	m := ml.NewLSTM(256, 16, 16, rng)
	tokens := make([]int, 128)
	for i := range tokens {
		tokens[i] = rng.Intn(256)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.NLL(tokens, nil)
	}
}

// BenchmarkFig19RecScore measures the recommendation quality evaluation
// behind Figure 19/20's points.
func BenchmarkFig19RecScore(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	emb := ml.NewEmbedding(2048, 16, rng)
	mlp := ml.NewMLP(16, 24, rng)
	hist := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	x := make(ml.Vec, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		emb.Bag(x, hist, nil)
		_ = mlp.Predict(x)
	}
}

// BenchmarkFig20BatchPIR measures a full PBR round (the protocol unit the
// Taobao figure sweeps).
func BenchmarkFig20BatchPIR(b *testing.B) {
	cfg := batchpir.Config{NumRows: 4096, BinSize: 256}
	tabP, err := pir.NewTable(cfg.NumRows, 16)
	if err != nil {
		b.Fatal(err)
	}
	s0, err := batchpir.NewServer(0, tabP, cfg)
	if err != nil {
		b.Fatal(err)
	}
	s1, err := batchpir.NewServer(1, tabP, cfg)
	if err != nil {
		b.Fatal(err)
	}
	rng := randv2.New(randv2.NewPCG(9, 0))
	c, err := pir.NewClient("aes128", cfg.BinSize, pir.InsecureSeeded(rng))
	if err != nil {
		b.Fatal(err)
	}
	ts := &pir.TwoServer{Client: c, E0: pir.InProcess{Server: s0}, E1: pir.InProcess{Server: s1}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, err := batchpir.BuildPlan(cfg, []uint64{3, 700, 2900}, rng)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := ts.Fetch(plan.Offsets); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTab1Tab2Inventory regenerates the static inventory tables.
func BenchmarkTab1Tab2Inventory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1(); err != nil {
			b.Fatal(err)
		}
		if _, err := experiments.Table2(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDataGen measures synthetic dataset generation throughput.
func BenchmarkDataGen(b *testing.B) {
	cfg := data.RecConfig{
		Name: "bench", Items: 2048, Genres: 8, Candidates: 64,
		HistoryLen: 16, ZipfS: 1.2, Train: 200, Test: 50, SessionLen: 4, Seed: 1,
	}
	for i := 0; i < b.N; i++ {
		if _, err := data.GenRec(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
