package experiments

import (
	"fmt"
	"math/rand"
	randv2 "math/rand/v2"
	"slices"
	"sync"

	"gpudpf/internal/codesign"
	"gpudpf/internal/data"
	"gpudpf/internal/ml"
)

// App is one end-to-end evaluation application (§5.1): a trained model
// whose protected embedding lookups flow through the co-design layer.
type App struct {
	// Name is wikitext2 / movielens / taobao.
	Name string
	// Items and Dim describe the protected table (Dim float32 lanes; the
	// entry sizes track Table 1: 128 bytes).
	Items, Dim int
	// Freq and Cooccur are training-split statistics for preprocessing.
	Freq    []int64
	Cooccur [][]uint64
	// TestTraces are the held-out per-inference lookup sets.
	TestTraces [][]uint64
	// AvgQueries is the mean lookups per inference on the test split.
	AvgQueries float64
	// Baseline is the no-drop quality (internal units, higher = better;
	// LM quality is negated perplexity).
	Baseline float64
	// QualityLabel and Display map internal quality to the paper's metric.
	QualityLabel string
	Display      func(float64) float64
	// EcoTol and RelaxedTol are the quality slack for Acc-eco (tiny) and
	// Acc-relaxed (paper: <0.5% for recommendation, <5% for LM), in
	// internal units.
	EcoTol, RelaxedTol float64
	// ScoreDrops re-scores the model on the test split with the given
	// per-trace dropped-lookup sets.
	ScoreDrops func(drops []map[uint64]bool) (float64, error)
	// ModelFLOPs drives the on-device DNN latency term (Figure 12).
	ModelFLOPs float64
	// CommBudget and LatencyBudget are the paper's standard budgets scaled
	// to this app's table size (budgets must stay well under the table
	// size, or downloading the whole table beats PIR).
	CommBudget    int64
	TightComm     int64
	LatencyBudget int64 // milliseconds
}

// EcoTarget and RelaxedTarget are the quality floors for the two paper
// operating points.
func (a *App) EcoTarget() float64     { return a.Baseline - a.EcoTol }
func (a *App) RelaxedTarget() float64 { return a.Baseline - a.RelaxedTol }

// Quality evaluates a layout by simulating its drops on the held-out split
// and re-scoring the model (deterministic dummy randomness so grid points
// are comparable).
func (a *App) Quality(l *codesign.Layout) (float64, error) {
	drops, err := l.SimulateDrops(a.TestTraces, a.Freq, randv2.New(randv2.NewPCG(7, 0)))
	if err != nil {
		return 0, err
	}
	return a.ScoreDrops(drops)
}

// PlainDrops simulates the straightforward (non-PBR) design: each
// inference issues exactly q independent full-table queries, most frequent
// lookups first; anything beyond q drops. No bin collisions.
func (a *App) PlainDrops(q int) []map[uint64]bool {
	out := make([]map[uint64]bool, len(a.TestTraces))
	for i, tr := range a.TestTraces {
		ordered := codesign.OrderByFrequency(tr, a.Freq)
		m := map[uint64]bool{}
		for j := q; j < len(ordered); j++ {
			m[ordered[j]] = true
		}
		out[i] = m
	}
	return out
}

// recApp trains the 2-layer MLP recommendation model and wires its quality
// function. The model sees the privately pooled user history (the part PIR
// protects), the candidate's public metadata (genre one-hot — candidates
// arrive from the server with attributes, §2.1) and the dense context.
func recApp(cfg data.RecConfig, dim, hidden, epochs int) (*App, error) {
	ds, err := data.GenRec(cfg)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 100))
	hist := ml.NewEmbedding(cfg.Items, dim, rng)
	mlp := ml.NewMLP(dim+cfg.Genres+cfg.DenseDim, hidden, rng)

	feats := func(s data.RecSample, drops map[uint64]bool) ml.Vec {
		x := make(ml.Vec, dim+cfg.Genres+cfg.DenseDim)
		hist.Bag(x[:dim], s.History, drops)
		x[dim+s.CandGenre] = 1
		copy(x[dim+cfg.Genres:], s.Dense)
		return x
	}
	// Embeddings take a larger step than the dense layers: each history
	// item receives only 1/len(history) of the pooled gradient.
	const lr, embLR = 0.05, 0.4
	for e := 0; e < epochs; e++ {
		for _, s := range ds.Train {
			x := feats(s, nil)
			_, dx := mlp.TrainStep(x, s.Label, lr)
			hist.BagGrad(dx[:dim], s.History, nil, embLR)
		}
	}

	score := func(drops []map[uint64]bool) (float64, error) {
		scores := make([]float64, len(ds.Test))
		labels := make([]float64, len(ds.Test))
		for i, s := range ds.Test {
			var d map[uint64]bool
			if drops != nil {
				if i >= len(drops) {
					return 0, fmt.Errorf("experiments: %d drop sets for %d test samples", len(drops), len(ds.Test))
				}
				d = drops[i]
			}
			scores[i] = mlp.Predict(feats(s, d))
			labels[i] = s.Label
		}
		return ml.AUC(scores, labels), nil
	}

	trainTraces := ds.Traces(true)
	testTraces := ds.Traces(false)
	freq := data.Freq(trainTraces, cfg.Items)
	baseline, err := score(nil)
	if err != nil {
		return nil, err
	}
	return &App{
		Name:         cfg.Name,
		Items:        cfg.Items,
		Dim:          dim,
		Freq:         freq,
		Cooccur:      data.Cooccur(trainTraces, cfg.Items, 8),
		TestTraces:   testTraces,
		AvgQueries:   avgTraceLen(testTraces),
		Baseline:     baseline,
		QualityLabel: "AUC",
		Display:      func(q float64) float64 { return q },
		EcoTol:       0.004 * baseline,
		RelaxedTol:   0.02 * baseline,
		ScoreDrops:   score,
		ModelFLOPs:   mlp.FLOPs(),
	}, nil
}

// lmApp trains the LSTM language model.
func lmApp(cfg data.LMConfig, embDim, hiddenDim, window, epochs int) (*App, error) {
	ds, err := data.GenLM(cfg)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 200))
	model := ml.NewLSTM(cfg.Vocab, embDim, hiddenDim, rng)
	const lr = 0.1
	for e := 0; e < epochs; e++ {
		for off := 0; off+window+1 <= len(ds.Train); off += window {
			model.TrainStep(ds.Train[off:off+window+1], lr)
		}
	}

	// Quality: mean NLL over test windows, each with its own drop set. The
	// model reads a drop set only at the window's input tokens, so a
	// window's NLL depends only on which of those it drops: each window is
	// scored once per distinct such set (the co-design search asks for the
	// same sets again and again), and the sum keeps its order. ScoreDrops
	// may run concurrently.
	var (
		memoMu sync.Mutex
		memo   = map[string]float64{}
	)
	nllWithDrops := func(drops []map[uint64]bool) float64 {
		var total float64
		n := 0
		for w := 0; w*window+window <= len(ds.Test); w++ {
			tokens := ds.Test[w*window : w*window+window]
			var hit []int
			if drops != nil && w < len(drops) {
				for _, tok := range tokens[:len(tokens)-1] {
					if drops[w][uint64(tok)] {
						hit = append(hit, tok)
					}
				}
				slices.Sort(hit)
				hit = slices.Compact(hit)
			}
			key := fmt.Sprint(w, hit)
			memoMu.Lock()
			nll, ok := memo[key]
			memoMu.Unlock()
			if !ok {
				d := make(map[int]bool, len(hit))
				for _, tok := range hit {
					d[tok] = true
				}
				nll = model.NLL(tokens, d)
				memoMu.Lock()
				memo[key] = nll
				memoMu.Unlock()
			}
			total += nll
			n++
		}
		return total / float64(n)
	}

	trainTraces := ds.Traces(window, true)
	testTraces := ds.Traces(window, false)
	freq := data.Freq(trainTraces, cfg.Vocab)
	basePPL := ml.PerplexityFromNLL(nllWithDrops(nil))
	return &App{
		Name:         "wikitext2",
		Items:        cfg.Vocab,
		Dim:          embDim,
		Freq:         freq,
		Cooccur:      data.Cooccur(trainTraces, cfg.Vocab, 8),
		TestTraces:   testTraces,
		AvgQueries:   avgTraceLen(testTraces),
		Baseline:     -basePPL,
		QualityLabel: "ppl",
		Display:      func(q float64) float64 { return -q },
		EcoTol:       0.005 * basePPL,
		RelaxedTol:   0.05 * basePPL,
		ScoreDrops: func(drops []map[uint64]bool) (float64, error) {
			return -ml.PerplexityFromNLL(nllWithDrops(drops)), nil
		},
		ModelFLOPs: model.FLOPs(),
	}, nil
}

func avgTraceLen(traces [][]uint64) float64 {
	if len(traces) == 0 {
		return 0
	}
	total := 0
	for _, tr := range traces {
		total += len(tr)
	}
	return float64(total) / float64(len(traces))
}

var (
	appsOnce sync.Once
	appsVal  []*App
	appsErr  error
)

// Apps builds (once) the three evaluation applications at experiment scale:
// small enough to train in seconds, large enough that the communication
// budgets bind (well under the table sizes).
func Apps() ([]*App, error) {
	appsOnce.Do(func() {
		appsVal, appsErr = buildApps()
	})
	return appsVal, appsErr
}

// buildApps constructs the three applications. Scales are chosen so every
// model genuinely learns from its synthetic data (each vocabulary item gets
// enough training exposure for drops to hurt) while the communication
// budgets stay an order of magnitude below the table sizes — the paper's
// regime, scaled down.
func buildApps() ([]*App, error) {
	lmCfg := data.LMConfig{
		Vocab: 512, TrainTokens: 30000, TestTokens: 2000,
		ZipfS: 1.1, BigramFollow: 0.7, Succ: 3, Seed: 3,
	}
	lm, err := lmApp(lmCfg, 32, 24, 16, 6) // 128B entries → 64KB table
	if err != nil {
		return nil, fmt.Errorf("experiments: building wikitext2: %w", err)
	}
	lm.CommBudget, lm.TightComm, lm.LatencyBudget = 32<<10, 8<<10, 300

	mlCfg := data.RecConfig{
		Name: "movielens", Items: 2048, Genres: 8, Candidates: 100,
		HistoryLen: 16, ZipfS: 1.2, Train: 4000, Test: 400,
		SessionLen: 4, Seed: 1,
	}
	movie, err := recApp(mlCfg, 16, 24, 6) // 64B entries → 128KB table
	if err != nil {
		return nil, fmt.Errorf("experiments: building movielens: %w", err)
	}
	movie.CommBudget, movie.TightComm, movie.LatencyBudget = 32<<10, 8<<10, 300

	tbCfg := data.RecConfig{
		Name: "taobao", Items: 16384, Genres: 8, Candidates: 100,
		HistoryLen: 3, DenseDim: 8, DenseSignal: 0.85, ZipfS: 1.15,
		Train: 2400, Test: 400, SessionLen: 4, Seed: 2,
	}
	taobao, err := recApp(tbCfg, 16, 24, 2) // 1MB table
	if err != nil {
		return nil, fmt.Errorf("experiments: building taobao: %w", err)
	}
	taobao.CommBudget, taobao.TightComm, taobao.LatencyBudget = 24<<10, 6<<10, 300

	return []*App{lm, movie, taobao}, nil
}
