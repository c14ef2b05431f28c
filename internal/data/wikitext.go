package data

import (
	"fmt"
	"math/rand"
)

// LMConfig parameterizes the WikiText-2 stand-in corpus.
type LMConfig struct {
	// Vocab is the word-embedding table size (paper: ≈33K distinct tokens
	// in WikiText-2; Table 1 lists the 131K-row embedding variant).
	Vocab int
	// TrainTokens and TestTokens are the split lengths.
	TrainTokens, TestTokens int
	// ZipfS is the unigram skew.
	ZipfS float64
	// BigramFollow is the probability the next token comes from the
	// current token's successor set rather than the unigram distribution —
	// the co-occurrence structure co-location exploits.
	BigramFollow float64
	// Succ is the successor-set size per token.
	Succ int
	// Seed makes generation deterministic.
	Seed int64
}

// LMDataset is a generated corpus.
type LMDataset struct {
	Config      LMConfig
	Train, Test []int
}

// GenLM generates a corpus with Zipf unigrams and deterministic per-word
// successor sets (a simple learnable bigram process).
func GenLM(cfg LMConfig) (*LMDataset, error) {
	if cfg.Vocab < 8 {
		return nil, fmt.Errorf("data: vocab %d too small", cfg.Vocab)
	}
	if cfg.TrainTokens < 2 || cfg.TestTokens < 2 {
		return nil, fmt.Errorf("data: token counts must be >= 2")
	}
	if cfg.Succ < 1 {
		return nil, fmt.Errorf("data: Succ must be >= 1")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	gen := func(n int) []int {
		zipf := NewZipf(rng, cfg.ZipfS, cfg.Vocab)
		out := make([]int, n)
		cur := int(zipf.Draw())
		for i := range out {
			out[i] = cur
			if rng.Float64() < cfg.BigramFollow {
				k := rng.Intn(cfg.Succ) + 1
				cur = successor(cfg, cur, k)
			} else {
				cur = int(zipf.Draw())
			}
		}
		return out
	}
	return &LMDataset{
		Config: cfg,
		Train:  gen(cfg.TrainTokens),
		Test:   gen(cfg.TestTokens),
	}, nil
}

// successor is the deterministic bigram structure: the k-th successor of w.
func successor(cfg LMConfig, w, k int) int {
	return (w*7 + k*13 + 1) % cfg.Vocab
}

// Traces slices a split into per-inference lookup sets: a next-word
// prediction needs the embeddings of the distinct tokens in its context
// window.
func (d *LMDataset) Traces(window int, train bool) [][]uint64 {
	src := d.Test
	if train {
		src = d.Train
	}
	if window < 1 {
		window = 1
	}
	var out [][]uint64
	for off := 0; off+window <= len(src); off += window {
		seen := map[int]bool{}
		var trace []uint64
		for _, tok := range src[off : off+window] {
			if !seen[tok] {
				seen[tok] = true
				trace = append(trace, uint64(tok))
			}
		}
		out = append(out, trace)
	}
	return out
}
