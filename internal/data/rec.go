package data

import (
	"fmt"
	"math/rand"

	"gpudpf/internal/ml"
)

// RecSample is one recommendation inference: the user's recent-interaction
// history (the sparse lookups PIR protects), a candidate item, dense
// context features, and the click label.
type RecSample struct {
	// User groups consecutive samples into sessions (temporal locality).
	User int
	// History are the protected embedding-table indices.
	History []uint64
	// Candidate is the item being ranked (its embedding is on-device).
	Candidate int
	// CandGenre is the candidate's genre — a public item attribute the
	// on-device model receives alongside the candidate (server-provided
	// candidates come with metadata; §2.1).
	CandGenre int
	// Dense are non-private context features.
	Dense []float64
	// Label is 1 for a click.
	Label float64
}

// RecConfig parameterizes a synthetic recommendation dataset.
type RecConfig struct {
	// Name labels the dataset in reports.
	Name string
	// Items is the protected table's row count.
	Items int
	// Genres is the co-occurrence cluster count.
	Genres int
	// Candidates is the on-device candidate-item vocabulary.
	Candidates int
	// HistoryLen is the lookups per inference (paper: MovieLens ≈72,
	// Taobao ≈2.68).
	HistoryLen int
	// DenseDim is the dense feature width.
	DenseDim int
	// DenseSignal ∈ [0,1] is the fraction of label signal carried by the
	// dense features rather than the sparse history. The paper observes
	// Taobao's sparse features are only a fraction of its inputs, which is
	// why co-design helps it least (Figure 20); high DenseSignal
	// reproduces that.
	DenseSignal float64
	// ZipfS is the popularity skew (smaller = heavier tail).
	ZipfS float64
	// Train and Test are the sample counts.
	Train, Test int
	// SessionLen is how many consecutive samples share a user's history
	// (drives the §2.3 temporal-locality cache experiments).
	SessionLen int
	// Seed makes generation deterministic.
	Seed int64
}

// RecDataset is a generated dataset plus the ground-truth structure the
// co-design preprocessing is allowed to learn from the *training* split.
type RecDataset struct {
	Config      RecConfig
	Train, Test []RecSample
}

// GenRec generates a dataset: items are clustered into genres with
// Zipf-popular items inside each genre; a user has a preferred genre, their
// history concentrates in it, and the label is genre affinity mixed with
// dense signal per DenseSignal.
func GenRec(cfg RecConfig) (*RecDataset, error) {
	if cfg.Items < cfg.Genres || cfg.Genres < 2 {
		return nil, fmt.Errorf("data: need Items >= Genres >= 2, got %d/%d", cfg.Items, cfg.Genres)
	}
	if cfg.HistoryLen < 1 || cfg.Train < 1 || cfg.Test < 1 {
		return nil, fmt.Errorf("data: invalid counts in %+v", cfg)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	d := &RecDataset{Config: cfg}
	d.Train = genRecSplit(cfg, rng, cfg.Train, 0)
	d.Test = genRecSplit(cfg, rng, cfg.Test, 1<<30)
	return d, nil
}

// CandidateGenre maps a candidate item to its genre.
func CandidateGenre(cfg RecConfig, cand int) int { return cand % cfg.Genres }

// itemGenre maps an item to its genre: genres own contiguous index ranges,
// which is deliberately *not* what co-location produces (co-location must
// earn its win by re-grouping by observed co-occurrence, and hot-table
// splitting by observed frequency).
func itemGenre(cfg RecConfig, item uint64) int {
	per := cfg.Items / cfg.Genres
	g := int(item) / per
	if g >= cfg.Genres {
		g = cfg.Genres - 1
	}
	return g
}

func genRecSplit(cfg RecConfig, rng *rand.Rand, n, userBase int) []RecSample {
	perGenre := cfg.Items / cfg.Genres
	// In-genre popularity is Zipf over the genre's items.
	zipf := NewZipf(rng, cfg.ZipfS, perGenre)
	genreItem := func(g int) uint64 {
		return uint64(g*perGenre) + zipf.Draw()
	}
	sessionLen := cfg.SessionLen
	if sessionLen < 1 {
		sessionLen = 1
	}
	samples := make([]RecSample, 0, n)
	user := userBase
	for len(samples) < n {
		user++
		g := rng.Intn(cfg.Genres)
		// Session seed history: mostly preferred-genre items.
		hist := make([]uint64, cfg.HistoryLen)
		for i := range hist {
			if rng.Float64() < 0.8 {
				hist[i] = genreItem(g)
			} else {
				hist[i] = genreItem(rng.Intn(cfg.Genres))
			}
		}
		for s := 0; s < sessionLen && len(samples) < n; s++ {
			if s > 0 {
				// Temporal locality: one history slot changes per step.
				hist[rng.Intn(len(hist))] = genreItem(g)
			}
			cand := rng.Intn(cfg.Candidates)
			candGenre := CandidateGenre(cfg, cand)
			genreScore := -1.5
			if candGenre == g {
				genreScore = 1.5
			}
			dense := make([]float64, cfg.DenseDim)
			for i := range dense {
				dense[i] = rng.NormFloat64()
			}
			denseScore := 0.0
			if cfg.DenseDim > 0 {
				denseScore = 2 * dense[0]
			}
			p := ml.Sigmoid((1-cfg.DenseSignal)*genreScore + cfg.DenseSignal*denseScore)
			label := 0.0
			if rng.Float64() < p {
				label = 1
			}
			h := make([]uint64, len(hist))
			copy(h, hist)
			samples = append(samples, RecSample{
				User: user, History: h, Candidate: cand, CandGenre: candGenre,
				Dense: dense, Label: label,
			})
		}
	}
	return samples
}

// Traces returns the per-inference protected-index sets of a split, the
// input to frequency and co-occurrence profiling.
func (d *RecDataset) Traces(train bool) [][]uint64 {
	src := d.Test
	if train {
		src = d.Train
	}
	out := make([][]uint64, len(src))
	for i, s := range src {
		out[i] = s.History
	}
	return out
}
