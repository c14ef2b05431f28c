package data

import (
	"math/rand"
	"sort"
	"testing"
)

func TestTable1Inventory(t *testing.T) {
	specs := Table1()
	if len(specs) != 6 {
		t.Fatalf("Table 1 has %d rows, want 6", len(specs))
	}
	// Criteo 1TB: >476 GB per the paper.
	if gb := float64(specs[0].TableBytes()) / (1 << 30); gb < 476 {
		t.Errorf("Criteo 1TB table = %.0f GB, paper says >476 GB", gb)
	}
	// MovieLens: ~3 MB.
	if mb := float64(specs[5].TableBytes()) / (1 << 20); mb < 2 || mb > 4 {
		t.Errorf("MovieLens table = %.1f MB, paper says ≈3 MB", mb)
	}
}

func TestRealWorldModel(t *testing.T) {
	feats := RealWorldModel()
	if len(feats) != 5 {
		t.Fatalf("Table 2 has %d features, want 5", len(feats))
	}
	// Row 2: 20M entries × 144B = 2.68 GB.
	gb := float64(feats[1].Entries) * RealWorldEntryBytes / 1e9
	if gb < 2.5 || gb > 3.1 {
		t.Errorf("feature 2 table = %.2f GB, paper says 2.68 GB", gb)
	}
}

func TestGenRecShape(t *testing.T) {
	cfg := RecConfig{
		Name: "movielens", Items: 270, Genres: 4, Candidates: 20, HistoryLen: 72,
		ZipfS: 1.2, Train: 300, Test: 100, SessionLen: 4, Seed: 1,
	}
	d, err := GenRec(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Train) != 300 || len(d.Test) != 100 {
		t.Fatalf("split sizes %d/%d", len(d.Train), len(d.Test))
	}
	for _, s := range d.Train {
		if len(s.History) != cfg.HistoryLen {
			t.Fatalf("history len %d, want %d", len(s.History), cfg.HistoryLen)
		}
		for _, idx := range s.History {
			if idx >= uint64(cfg.Items) {
				t.Fatalf("history index %d out of range", idx)
			}
		}
		if s.Candidate < 0 || s.Candidate >= cfg.Candidates {
			t.Fatalf("candidate %d out of range", s.Candidate)
		}
		if s.Label != 0 && s.Label != 1 {
			t.Fatalf("label %g not binary", s.Label)
		}
	}
}

func TestGenRecDeterministic(t *testing.T) {
	cfg := RecConfig{
		Name: "taobao", Items: 900, Genres: 4, Candidates: 16, HistoryLen: 3,
		DenseDim: 8, DenseSignal: 0.85, ZipfS: 1.15, Train: 50, Test: 20, SessionLen: 4, Seed: 2,
	}
	a, err := GenRec(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenRec(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Train {
		if a.Train[i].Candidate != b.Train[i].Candidate || a.Train[i].Label != b.Train[i].Label {
			t.Fatal("same seed produced different data")
		}
		for j := range a.Train[i].History {
			if a.Train[i].History[j] != b.Train[i].History[j] {
				t.Fatal("same seed produced different histories")
			}
		}
	}
}

func TestGenRecValidation(t *testing.T) {
	bad := RecConfig{Items: 4, Genres: 8, HistoryLen: 1, Train: 1, Test: 1}
	if _, err := GenRec(bad); err == nil {
		t.Error("Items < Genres accepted")
	}
	bad2 := RecConfig{
		Name: "movielens", Items: 270, Genres: 4, Candidates: 20, HistoryLen: 72,
		ZipfS: 1.2, Train: 0, Test: 600, SessionLen: 4, Seed: 1,
	}
	if _, err := GenRec(bad2); err == nil {
		t.Error("zero train samples accepted")
	}
}

// TestRecPopularityIsZipf: the generated access pattern must be heavy
// tailed — the property the hot table exploits.
func TestRecPopularityIsZipf(t *testing.T) {
	cfg := RecConfig{
		Name: "movielens", Items: 540, Genres: 4, Candidates: 40, HistoryLen: 72,
		ZipfS: 1.2, Train: 1500, Test: 600, SessionLen: 4, Seed: 1,
	}
	d, err := GenRec(cfg)
	if err != nil {
		t.Fatal(err)
	}
	counts := Freq(d.Traces(true), cfg.Items)
	sort.Slice(counts, func(a, b int) bool { return counts[a] > counts[b] })
	var total, top int64
	for i, c := range counts {
		total += c
		if i < len(counts)/10 {
			top += c
		}
	}
	if skew := float64(top) / float64(total); skew < 0.5 {
		t.Errorf("top-10%% mass = %.2f, want heavy tail > 0.5", skew)
	}
}

// TestRecTemporalLocality: consecutive samples of one user share most of
// their history (§2.3's caching premise).
func TestRecTemporalLocality(t *testing.T) {
	cfg := RecConfig{
		Name: "movielens", Items: 540, Genres: 4, Candidates: 40, HistoryLen: 72,
		ZipfS: 1.2, Train: 2000, Test: 600, SessionLen: 5, Seed: 1,
	}
	d, err := GenRec(cfg)
	if err != nil {
		t.Fatal(err)
	}
	shared, pairs := 0, 0
	for i := 1; i < len(d.Train); i++ {
		if d.Train[i].User != d.Train[i-1].User {
			continue
		}
		prev := map[uint64]bool{}
		for _, idx := range d.Train[i-1].History {
			prev[idx] = true
		}
		for _, idx := range d.Train[i].History {
			if prev[idx] {
				shared++
			}
		}
		pairs += len(d.Train[i].History)
	}
	if pairs == 0 {
		t.Fatal("no intra-session pairs generated")
	}
	if frac := float64(shared) / float64(pairs); frac < 0.9 {
		t.Errorf("intra-session history overlap %.2f, want > 0.9", frac)
	}
}

func TestGenLM(t *testing.T) {
	cfg := LMConfig{Vocab: 330, TrainTokens: 8000, TestTokens: 2000, ZipfS: 1.1, BigramFollow: 0.7, Succ: 3, Seed: 3}
	d, err := GenLM(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Train) != cfg.TrainTokens || len(d.Test) != cfg.TestTokens {
		t.Fatal("wrong split sizes")
	}
	for _, tok := range d.Train {
		if tok < 0 || tok >= cfg.Vocab {
			t.Fatalf("token %d out of range", tok)
		}
	}
	// Bigram structure: successors of a token should be far more likely
	// than chance.
	follow := 0
	for i := 1; i < len(d.Train); i++ {
		w := d.Train[i-1]
		for k := 1; k <= cfg.Succ; k++ {
			if d.Train[i] == successor(cfg, w, k) {
				follow++
				break
			}
		}
	}
	if frac := float64(follow) / float64(len(d.Train)-1); frac < 0.5 {
		t.Errorf("successor-follow rate %.2f, want > 0.5 (BigramFollow=%.2f)", frac, cfg.BigramFollow)
	}
	if _, err := GenLM(LMConfig{Vocab: 2, TrainTokens: 10, TestTokens: 10, Succ: 1}); err == nil {
		t.Error("tiny vocab accepted")
	}
}

func TestLMTraces(t *testing.T) {
	cfg := LMConfig{Vocab: 330, TrainTokens: 8000, TestTokens: 2000, ZipfS: 1.1, BigramFollow: 0.7, Succ: 3, Seed: 3}
	d, err := GenLM(cfg)
	if err != nil {
		t.Fatal(err)
	}
	traces := d.Traces(16, false)
	if len(traces) != cfg.TestTokens/16 {
		t.Errorf("%d traces, want %d", len(traces), cfg.TestTokens/16)
	}
	for _, tr := range traces {
		seen := map[uint64]bool{}
		for _, idx := range tr {
			if seen[idx] {
				t.Fatal("trace contains duplicates")
			}
			seen[idx] = true
		}
		if len(tr) == 0 || len(tr) > 16 {
			t.Fatalf("trace size %d out of range", len(tr))
		}
	}
}

func TestFreqAndTopK(t *testing.T) {
	traces := [][]uint64{{0, 1, 1}, {1, 2}, {1}}
	counts := Freq(traces, 4)
	want := []int64{1, 4, 1, 0}
	for i := range want {
		if counts[i] != want[i] {
			t.Errorf("counts[%d] = %d, want %d", i, counts[i], want[i])
		}
	}
	top := TopK(counts, 2)
	if top[0] != 1 {
		t.Errorf("TopK[0] = %d, want 1", top[0])
	}
	if len(TopK(counts, 100)) != 4 {
		t.Error("TopK should clamp k to len")
	}
}

func TestCooccur(t *testing.T) {
	traces := [][]uint64{{0, 1, 2}, {0, 1}, {0, 1}, {0, 3}}
	co := Cooccur(traces, 4, 2)
	if len(co[0]) != 2 || co[0][0] != 1 {
		t.Errorf("co[0] = %v, want [1 ...]", co[0])
	}
	if len(co[3]) != 1 || co[3][0] != 0 {
		t.Errorf("co[3] = %v, want [0]", co[3])
	}
	// Index beyond items and self-pairs are ignored.
	co2 := Cooccur([][]uint64{{5, 5, 9}}, 4, 2)
	for i := range co2 {
		if len(co2[i]) != 0 {
			t.Error("out-of-range indices should not produce companions")
		}
	}
}

func TestZipfSampler(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	z := NewZipf(rng, 1.2, 100)
	counts := make([]int64, 100)
	for i := 0; i < 10000; i++ {
		v := z.Draw()
		if v >= 100 {
			t.Fatalf("draw %d out of range", v)
		}
		counts[v]++
	}
	if counts[0] < counts[50] {
		t.Error("Zipf head should dominate the tail")
	}
}
