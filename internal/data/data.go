// Package data generates the synthetic stand-ins for the paper's
// evaluation datasets (MovieLens-20M, Taobao ads, WikiText-2) and the
// real-world recommendation model of Table 2. Real datasets are not
// available offline, so the generators reproduce the two
// properties the PIR+ML co-design results depend on:
//
//  1. power-law (Zipf) index popularity — what the frequency-based hot
//     table exploits, and
//  2. intra-inference co-occurrence (genre/topic structure) — what
//     embedding co-location exploits,
//
// plus the per-application shape parameters the paper reports (vocabulary
// sizes, entry sizes, average lookups per inference, and how much of the
// label signal flows through the sparse features).
package data

import "math/rand"

// Zipf draws from a Zipf distribution over [0, n) with exponent s > 1.
type Zipf struct{ z *rand.Zipf }

// NewZipf builds a sampler. Smaller s → heavier tail.
func NewZipf(rng *rand.Rand, s float64, n int) *Zipf {
	return &Zipf{z: rand.NewZipf(rng, s, 1, uint64(n-1))}
}

// Draw samples one index.
func (z *Zipf) Draw() uint64 { return z.z.Uint64() }

// TableSpec is one row of the paper's Table 1 embedding-table inventory.
type TableSpec struct {
	// Name is the application.
	Name string
	// Entries is the row count; EntryBytes the row size.
	Entries    int64
	EntryBytes int
}

// TableBytes is the total table size.
func (t TableSpec) TableBytes() int64 { return t.Entries * int64(t.EntryBytes) }

// Table1 reproduces the paper's Table 1 inventory.
func Table1() []TableSpec {
	return []TableSpec{
		{"Criteo 1TB Rec.", 4_000_000_000, 128},
		{"Criteo Rec.", 45_000_000, 128},
		{"FastText Emb. (Language Model)", 2_000_000, 1024},
		{"Taobao Rec.", 900_000, 128},
		{"WikiText2 (Language Model)", 131_000, 512},
		{"Movielens-20M Rec.", 27_000, 128},
	}
}

// RealWorldFeature is one device-only sparse feature of the paper's
// real-world recommendation model (Table 2; entries are 144 bytes).
type RealWorldFeature struct {
	// Entries is the embedding-table row count.
	Entries int
	// AvgQueries is the mean lookups per inference.
	AvgQueries float64
}

// RealWorldEntryBytes is the Table 2 entry size.
const RealWorldEntryBytes = 144

// RealWorldModel reproduces Table 2's five device-only features.
func RealWorldModel() []RealWorldFeature {
	return []RealWorldFeature{
		{7_614_589, 13.9},
		{20_000_000, 47.3},
		{20_000_000, 25.7},
		{2_989_943, 3.2},
		{20_000_000, 14.9},
	}
}

// RealWorldNewFeatureRate is the measured fraction of sparse features per
// inference not already cached on the client (§2.3: 2.44%).
const RealWorldNewFeatureRate = 0.0244
