package experiments

import (
	"fmt"
	randv2 "math/rand/v2"
	"sync"
	"time"

	"gpudpf/internal/codesign"
	"gpudpf/internal/dpf"
	"gpudpf/internal/model"
	"gpudpf/internal/netsim"
)

// plainPoint is the straightforward design: q independent full-table DPF
// queries per inference (no PBR, no co-design). Lookups beyond q drop.
type plainPoint struct {
	Q       int
	Quality float64
	PRF     int64
	Up      int64
	Down    int64
}

func (p plainPoint) Comm() int64 { return p.Up + p.Down }

func appBits(app *App) int {
	bits := 1
	for 1<<uint(bits) < app.Items {
		bits++
	}
	return bits
}

// plainSweep evaluates the plain design across query budgets.
func plainSweep(app *App) ([]plainPoint, error) {
	bits := appBits(app)
	domain := int64(1) << uint(bits)
	var out []plainPoint
	for _, q := range []int{1, 2, 4, 8, 16, 32, 64, 96, 128, 192, 256} {
		quality, err := app.ScoreDrops(app.PlainDrops(q))
		if err != nil {
			return nil, err
		}
		// Priced in the default early-terminated key format (§3.1), like
		// codesign.Cost: the plain and co-designed columns must stay
		// comparable.
		early := dpf.DefaultEarly(bits, 1)
		out = append(out, plainPoint{
			Q:       q,
			Quality: quality,
			PRF:     int64(q) * (2*(domain>>uint(early)) - 2),
			Up:      int64(q) * int64(dpf.MarshaledSizeEarly(bits, 1, early)) * 2,
			Down:    int64(q) * int64(app.Dim) * 4 * 2,
		})
	}
	return out, nil
}

// plainBest picks the cheapest plain point meeting the quality target and
// the communication budget (fewest queries = highest throughput).
func plainBest(points []plainPoint, target float64, commBudget int64) (plainPoint, bool) {
	for _, p := range points { // ascending Q
		if p.Quality >= target && (commBudget == 0 || p.Comm() <= commBudget) {
			return p, true
		}
	}
	return plainPoint{}, false
}

// plainGPUQPS and plainCPUQPS model inference throughput for the plain
// design (query throughput divided by queries per inference).
func plainGPUQPS(app *App, prg dpf.PRG, q int, maxLatency time.Duration) (float64, error) {
	bits := appBits(app)
	rep, err := model.TuneBatch(model.TeslaV100(), model.Schedule(bits), prg, bits, app.Dim, maxLatency)
	if err != nil {
		return 0, err
	}
	return rep.Throughput / float64(q), nil
}

func plainCPUQPS(app *App, prg dpf.PRG, q, threads int) (float64, error) {
	bits := appBits(app)
	rep, err := (model.CPUBaseline{Threads: threads}).Model(nil, prg, bits, 1, app.Dim)
	if err != nil {
		return 0, err
	}
	return rep.Throughput / float64(q), nil
}

// appSpace is the co-design grid used for the application experiments —
// compact but covering the paper's good regions.
func appSpace() codesign.Space {
	return codesign.Space{
		Cs:       []int{0, 1, 2, 4},
		HotFracs: []float64{0, 0.1, 0.2},
		QHots:    []int{2, 4, 8, 16},
		QFulls:   []int{1, 2, 4, 8, 16, 32, 64, 96, 128},
	}
}

// pbrOnlySpace is batch-PIR without co-design (Figures 18–20's baseline).
func pbrOnlySpace() codesign.Space {
	return codesign.Space{
		Cs:       []int{0},
		HotFracs: []float64{0},
		QHots:    []int{1},
		QFulls:   []int{1, 2, 4, 8, 16, 32, 64, 128, 256},
	}
}

// searchMemo caches grid searches across experiment runners.
var (
	searchMu   sync.Mutex
	searchMemo = map[string][]codesign.Candidate{}
)

func searchApp(app *App, space codesign.Space, budgets codesign.Budgets, kind string) ([]codesign.Candidate, error) {
	key := fmt.Sprintf("%s/%s/%d/%d", app.Name, kind, budgets.CommBytes, budgets.Latency)
	searchMu.Lock()
	cands, ok := searchMemo[key]
	searchMu.Unlock()
	if ok {
		return cands, nil
	}
	s := &codesign.Searcher{
		Items: app.Items, Dim: app.Dim,
		Freq: app.Freq, Cooccur: app.Cooccur,
		Quality: app.Quality,
		Device:  model.TeslaV100(),
		PRG:     dpf.NewAESPRG(),
		Rng:     randv2.New(randv2.NewPCG(11, 0)),
	}
	cands, err := s.Search(space, budgets)
	if err != nil {
		return nil, err
	}
	searchMu.Lock()
	searchMemo[key] = cands
	searchMu.Unlock()
	return cands, nil
}

// rescoreQPS recomputes candidates' modeled throughput under a different
// PRF (quality and communication are PRF-independent).
func rescoreQPS(cands []codesign.Candidate, prg dpf.PRG, maxLatency time.Duration) []codesign.Candidate {
	out := make([]codesign.Candidate, 0, len(cands))
	dev := model.TeslaV100()
	for _, c := range cands {
		qps, lat, batch, err := c.Layout.Throughput(dev, prg, maxLatency)
		if err != nil {
			continue
		}
		c.QPS, c.Latency, c.Batch = qps, lat, batch
		out = append(out, c)
	}
	// Keep sorted by QPS descending.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].QPS > out[j-1].QPS; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Fig11Table3 regenerates Figure 11 (normalized throughput) and Table 3
// (unnormalized QPS) in one table: per app, the CPU baseline, GPU, GPU+
// co-design and GPU+co-design+ChaCha20 designs at Acc-eco and Acc-relaxed.
func Fig11Table3() (*Table, error) {
	apps, err := Apps()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig11+tab3",
		Title:   "End-to-end inference throughput per design point",
		Columns: []string{"app", "design", "point", "QPS", "vs CPU eco", "quality"},
		Notes:   "paper Table 3 (CPU→best): Wikitext2 5→2,306; MovieLens 44→5,476; Taobao 8k→256k QPS",
	}
	chacha := dpf.NewChaChaPRG()
	aes := dpf.NewAESPRG()
	for _, app := range apps {
		budget := codesign.Budgets{CommBytes: app.CommBudget, Latency: time.Duration(app.LatencyBudget) * time.Millisecond}
		plain, err := plainSweep(app)
		if err != nil {
			return nil, err
		}
		cands, err := searchApp(app, appSpace(), budget, "std")
		if err != nil {
			return nil, err
		}
		chaCands := rescoreQPS(cands, chacha, budget.Latency)

		var cpuEcoQPS float64
		for _, point := range []struct {
			label  string
			target float64
		}{{"acc-eco", app.EcoTarget()}, {"acc-relaxed", app.RelaxedTarget()}} {
			pp, ok := plainBest(plain, point.target, app.CommBudget)
			if !ok {
				t.AddRow(app.Name, "CPU 32t", point.label, "n/a", "-", "-")
				t.AddRow(app.Name, "GPU", point.label, "n/a", "-", "-")
			} else {
				cpuQPS, err := plainCPUQPS(app, aes, pp.Q, 32)
				if err != nil {
					return nil, err
				}
				if point.label == "acc-eco" {
					cpuEcoQPS = cpuQPS
				}
				gpuQPS, err := plainGPUQPS(app, aes, pp.Q, budget.Latency)
				if err != nil {
					return nil, err
				}
				t.AddRow(app.Name, "CPU 32t", point.label, fmtF(cpuQPS),
					norm(cpuQPS, cpuEcoQPS), qualStr(app, pp.Quality))
				t.AddRow(app.Name, "GPU", point.label, fmtF(gpuQPS),
					norm(gpuQPS, cpuEcoQPS), qualStr(app, pp.Quality))
			}
			// The co-design sweep subsumes the plain per-lookup design
			// (the paper's parameter search would pick it when it wins),
			// so the reported point is the better of the two.
			codesignRow := func(label string, prg dpf.PRG, cands []codesign.Candidate) error {
				bestQPS := 0.0
				bestQual := 0.0
				if best, ok := codesign.BestMeetingQuality(cands, point.target); ok {
					bestQPS, bestQual = best.QPS, best.Quality
				}
				if pp, ok := plainBest(plain, point.target, app.CommBudget); ok {
					qps, err := plainGPUQPS(app, prg, pp.Q, budget.Latency)
					if err != nil {
						return err
					}
					if qps > bestQPS {
						bestQPS, bestQual = qps, pp.Quality
					}
				}
				if bestQPS == 0 {
					t.AddRow(app.Name, label, point.label, "n/a", "-", "-")
					return nil
				}
				t.AddRow(app.Name, label, point.label, fmtF(bestQPS),
					norm(bestQPS, cpuEcoQPS), qualStr(app, bestQual))
				return nil
			}
			if err := codesignRow("GPU+codesign", aes, cands); err != nil {
				return nil, err
			}
			if err := codesignRow("GPU+codesign+chacha", chacha, chaCands); err != nil {
				return nil, err
			}
		}
	}
	return t, nil
}

func norm(qps, base float64) string {
	if base <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.1fx", qps/base)
}

func qualStr(app *App, q float64) string {
	return fmt.Sprintf("%s=%.4g", app.QualityLabel, app.Display(q))
}

// Fig12 regenerates the end-to-end latency breakdown: Gen, PIR, network
// (4G) and on-device DNN per application at its Acc-eco co-design point.
func Fig12() (*Table, error) {
	apps, err := Apps()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig12",
		Title:   "End-to-end latency breakdown per inference (4G network)",
		Columns: []string{"app", "Gen (client)", "PIR (server)", "network", "DNN (client)", "total"},
		Notes:   "paper keeps end-to-end latency within ≈500ms; PIR is no longer the sole bottleneck",
	}
	link := netsim.FourG()
	i3 := model.IntelCorei3()
	aes := dpf.NewAESPRG()
	for _, app := range apps {
		budget := codesign.Budgets{CommBytes: app.CommBudget, Latency: time.Duration(app.LatencyBudget) * time.Millisecond}
		cands, err := searchApp(app, appSpace(), budget, "std")
		if err != nil {
			return nil, err
		}
		best, ok := codesign.BestMeetingQuality(cands, app.EcoTarget())
		if !ok {
			best = cands[0]
		}
		l := best.Layout
		cost := best.Cost

		genCycles := float64(l.EffectiveQFull()) * model.GenProfile(aes.CPUCyclesPerBlock(), l.FullCfg.BinBits(), 1)
		if l.Params.HotRows > 0 {
			genCycles += float64(l.EffectiveQHot()) * model.GenProfile(aes.CPUCyclesPerBlock(), l.HotCfg.BinBits(), 1)
		}
		gen := i3.CPUTime(genCycles, 1)
		pir := time.Duration(float64(best.Latency) / float64(best.Batch))
		network := link.RoundTrip(cost.UpBytes/2, cost.DownBytes/2)
		dnn := i3.DenseInferTime(app.ModelFLOPs)
		total := gen + pir + network + dnn
		t.AddRow(app.Name,
			gen.Round(time.Microsecond).String(),
			pir.Round(10*time.Microsecond).String(),
			network.Round(time.Millisecond).String(),
			dnn.Round(time.Microsecond).String(),
			total.Round(time.Millisecond).String())
	}
	return t, nil
}
