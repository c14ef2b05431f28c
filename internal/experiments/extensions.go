package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"gpudpf/internal/codesign"
	"gpudpf/internal/dpf"
	"gpudpf/internal/integrity"
	"gpudpf/internal/model"
	"gpudpf/internal/pir"
	"gpudpf/internal/serving"
)

// ExtMultiGPU regenerates the §3.2.7 scaling claim: sharding one large
// table across N devices divides latency ~linearly while total work stays
// optimal, and per-device utilization at a fixed batch motivates larger
// batches.
func ExtMultiGPU() (*Table, error) {
	t := &Table{
		ID:      "ext-multigpu",
		Title:   "Multi-GPU sharding of a 64M-entry table (§3.2.7), B=64, AES-128",
		Columns: []string{"devices", "latency", "QPS", "fleet PRF blocks", "fleet memory"},
		Notes:   "each device evaluates an L/N shard via EvalRange; the final reduction is linear",
	}
	dev := model.TeslaV100()
	prg := dpf.NewAESPRG()
	for _, n := range []int{1, 2, 4, 8, 16} {
		rep, err := (model.MultiGPU{Devices: n}).Model(dev, prg, 26, 64, 64)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", n),
			rep.Latency.Round(10*time.Microsecond).String(),
			fmtF(rep.Throughput),
			fmt.Sprintf("%d", rep.PRFBlocks),
			fmtBytes(rep.PeakMemBytes))
	}
	return t, nil
}

// ExtServing maps offered load to latency percentiles through the batcher
// in front of the modeled V100 (1M-entry table) — the operational side of
// the paper's throughput claims.
func ExtServing() (*Table, error) {
	t := &Table{
		ID:      "ext-serving",
		Title:   "Serving simulation: offered load vs latency (1M table, batcher MaxBatch=128/MaxDelay=50ms)",
		Columns: []string{"PRF", "offered QPS", "completed QPS", "p50", "p99", "mean batch", "device util"},
		Notes:   "beyond the modeled capacity the queue saturates and tail latency explodes",
	}
	dev := model.TeslaV100()
	policy := serving.Policy{MaxBatch: 128, MaxDelay: 50 * time.Millisecond}
	for _, prgName := range []string{"aes128", "chacha20"} {
		prg, err := dpf.NewPRG(prgName)
		if err != nil {
			return nil, err
		}
		s := model.MemBound{K: 128, Fused: true}
		lat := func(batch int) time.Duration {
			rep, err := s.Model(dev, prg, 20, batch, 64)
			if err != nil {
				return time.Hour
			}
			return rep.Latency
		}
		rng := rand.New(rand.NewSource(31))
		for _, qps := range []float64{100, 400, 1200, 2400, 4800} {
			p, err := serving.Simulate(rng, qps, 3*time.Second, policy, lat)
			if err != nil {
				return nil, err
			}
			t.AddRow(prgName, fmtF(p.OfferedQPS), fmtF(p.CompletedQPS),
				p.P50.Round(100*time.Microsecond).String(),
				p.P99.Round(100*time.Microsecond).String(),
				fmt.Sprintf("%.1f", p.MeanBatch),
				fmt.Sprintf("%.0f%%", p.Utilization*100))
		}
	}
	return t, nil
}

// ExtIntegrity measures the authenticated-PIR extension's real overhead:
// communication and PRF work of a verified fetch vs a plain fetch.
func ExtIntegrity() (*Table, error) {
	t := &Table{
		ID:      "ext-integrity",
		Title:   "Authenticated PIR (Merkle path fetched privately): overhead vs plain fetch",
		Columns: []string{"table rows", "plain comm", "verified comm", "comm overhead", "extra queries"},
		Notes:   "extends the honest-but-curious model toward malicious servers (§2.1)",
	}
	for _, rows := range []int{256, 1024, 4096} {
		tab, err := pir.NewTable(rows, 16)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(int64(rows)))
		for i := range tab.Data {
			tab.Data[i] = rng.Uint32()
		}
		com, err := integrity.Commit(tab)
		if err != nil {
			return nil, err
		}
		connect := func(serveTab *pir.Table, r int) (*pir.TwoServer, error) {
			s0, err := pir.NewServer(0, serveTab)
			if err != nil {
				return nil, err
			}
			s1, err := pir.NewServer(1, serveTab)
			if err != nil {
				return nil, err
			}
			c, err := pir.NewClient("aes128", r, rand.New(rand.NewSource(3)))
			if err != nil {
				return nil, err
			}
			return &pir.TwoServer{Client: c, E0: pir.InProcess{Server: s0}, E1: pir.InProcess{Server: s1}}, nil
		}
		vs, err := integrity.NewVerifiedSession(com, tab, connect)
		if err != nil {
			return nil, err
		}
		_, verified, err := vs.Fetch(uint64(rows / 2))
		if err != nil {
			return nil, err
		}
		plainTS, err := connect(tab, rows)
		if err != nil {
			return nil, err
		}
		_, plain, err := plainTS.Fetch([]uint64{uint64(rows / 2)})
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", rows),
			fmtBytes(plain.Total()), fmtBytes(verified.Total()),
			fmt.Sprintf("%.1fx", float64(verified.Total())/float64(plain.Total())),
			fmt.Sprintf("%d", len(com.Levels)))
	}
	return t, nil
}

// AblationCoopThreshold justifies the paper's 2^22 scheduling threshold:
// batched membound vs cooperative groups across table sizes.
func AblationCoopThreshold() (*Table, error) {
	t := &Table{
		ID:      "abl-coop",
		Title:   "Scheduling ablation: batched membound vs cooperative groups (B tuned, 300ms budget)",
		Columns: []string{"table size", "membound QPS", "membound b1 latency", "coop QPS", "coop latency", "scheduler picks"},
		Notes:   "the scheduler switches to cooperative groups at 2^22 (§3.2.5)",
	}
	dev := model.TeslaV100()
	prg := dpf.NewAESPRG()
	for _, bits := range []int{18, 20, 22, 24, 26} {
		mbQPS := "n/a (no batch <300ms)"
		if mb, err := model.TuneBatch(dev, model.MemBound{K: 128, Fused: true}, prg, bits, 64, 300*time.Millisecond); err == nil {
			mbQPS = fmtF(mb.Throughput)
		}
		mb1, err := (model.MemBound{K: 128, Fused: true}).Model(dev, prg, bits, 1, 64)
		if err != nil {
			return nil, err
		}
		coop, err := (model.CoopGroups{}).Model(dev, prg, bits, 1, 64)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("2^%d", bits),
			mbQPS, mb1.Latency.Round(10*time.Microsecond).String(),
			fmtF(coop.Throughput), coop.Latency.Round(10*time.Microsecond).String(),
			model.Schedule(bits).Name())
	}
	return t, nil
}

// AblationHotFraction sweeps the hot-table size on the MovieLens app (the
// hot-table split of §4): quality and computation vs fraction, fixed
// budgets.
func AblationHotFraction() (*Table, error) {
	apps, err := Apps()
	if err != nil {
		return nil, err
	}
	var app *App
	for _, a := range apps {
		if a.Name == "movielens" {
			app = a
		}
	}
	if app == nil {
		return nil, fmt.Errorf("experiments: movielens app missing")
	}
	t := &Table{
		ID:      "abl-hotfrac",
		Title:   "Hot-table fraction ablation (movielens, C=2, QHot=8, QFull=16)",
		Columns: []string{"hot fraction", "quality", "PRF blocks/inf", "comm/inf"},
		Notes:   "paper finds 10–20% of the table a good hot-table size (§4.2)",
	}
	for _, frac := range []float64{0, 0.05, 0.1, 0.2, 0.4} {
		groups := (app.Items + 2) / 3 // C=2 → groups of ≤3
		p := codesign.Params{C: 2, HotRows: int(frac * float64(groups)), QHot: 8, QFull: 16}
		if p.HotRows == 0 {
			p.QHot = 0
		}
		l, err := codesign.BuildLayout(app.Items, app.Dim, app.Freq, app.Cooccur, p)
		if err != nil {
			return nil, err
		}
		q, err := app.Quality(l)
		if err != nil {
			return nil, err
		}
		cost := l.Cost()
		t.AddRow(fmt.Sprintf("%.0f%%", frac*100), qualStr(app, q),
			fmt.Sprintf("%d", cost.PRFBlocks), fmtBytes(cost.CommBytes()))
	}
	return t, nil
}

// AblationColocation sweeps C on the WikiText-2 app (words co-occur
// strongly, the case the paper says favours C≈4–5).
func AblationColocation() (*Table, error) {
	apps, err := Apps()
	if err != nil {
		return nil, err
	}
	app := apps[0] // wikitext2
	t := &Table{
		ID:      "abl-coloc",
		Title:   "Co-location ablation (wikitext2, no hot table, QFull=16)",
		Columns: []string{"C", "quality", "PRF blocks/inf", "comm/inf"},
		Notes:   "paper: higher C (4–5) favours language tasks; recommendation prefers 1–3 (§4.2)",
	}
	for _, c := range []int{0, 1, 2, 4, 6} {
		l, err := codesign.BuildLayout(app.Items, app.Dim, app.Freq, app.Cooccur, codesign.Params{C: c, QFull: 16})
		if err != nil {
			return nil, err
		}
		q, err := app.Quality(l)
		if err != nil {
			return nil, err
		}
		cost := l.Cost()
		t.AddRow(fmt.Sprintf("%d", c), qualStr(app, q),
			fmt.Sprintf("%d", cost.PRFBlocks), fmtBytes(cost.CommBytes()))
	}
	return t, nil
}
