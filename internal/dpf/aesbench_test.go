package dpf

import (
	"encoding/binary"
	"math/rand/v2"
	"testing"
)

// BenchmarkScalarExpand measures the scalar AES Expand (Gen, EvalRange's
// walk): one lane of the batch expansion, on the hardware kernel or
// the T-table body.
func BenchmarkScalarExpand(b *testing.B) {
	prg := NewAESPRG()
	var s Seed
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l, _, _, _ := prg.Expand(s)
		s = l
	}
}

// benchFrontier is a PCG-seeded 128-wide frontier with its correction
// word and a default early-terminated key: random seeds, parent bits and
// cw.S, as a real key's are. (All-zero inputs flatter any pass that
// branches or depends on the data: the two-pass step measured 5.0 ns/node
// on zeros against 7.4 on these.)
func benchFrontier(b *testing.B) (k Key, cw CW, seeds []Seed, ts []uint8) {
	rng := rand.New(rand.NewPCG(128, 16))
	k, _, err := GenEarly(NewAESPRG(), 5, 10, 1, MaxEarlyBits, zeroReader{})
	if err != nil {
		b.Fatal(err)
	}
	seeds = make([]Seed, 128)
	ts = make([]uint8, 128)
	for i := range seeds {
		binary.LittleEndian.PutUint64(seeds[i][0:8], rng.Uint64())
		binary.LittleEndian.PutUint64(seeds[i][8:16], rng.Uint64())
		ts[i] = uint8(rng.Uint32() & 1)
	}
	return k, k.CWs[k.TreeDepth()-1], seeds, ts
}

// reportNsPerNode reports the figure to hold against the PRF ceiling: one
// node is two AES blocks under the fixed schedules.
func reportNsPerNode(b *testing.B, nodes int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(nodes), "ns/node")
}

// BenchmarkBatchExpand128 measures a 128-wide ExpandBatch (one K-wide
// frontier advance) on the kernel AESKernel() names, zero allocations on
// every one.
func BenchmarkBatchExpand128(b *testing.B) {
	prg := NewAESPRG()
	_, _, seeds, _ := benchFrontier(b)
	left := make([]Seed, 128)
	right := make([]Seed, 128)
	tl := make([]uint8, 128)
	tr := make([]uint8, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prg.ExpandBatch(seeds, left, right, tl, tr)
		copy(seeds, left)
	}
	reportNsPerNode(b, 128)
}

// BenchmarkStepBothBatch128 measures the inner-level frontier step — expand,
// correct, peel the control bits — on a 128-wide frontier.
func BenchmarkStepBothBatch128(b *testing.B) {
	prg := NewAESPRG()
	_, cw, seeds, ts := benchFrontier(b)
	next := make([]Seed, 256)
	nextT := make([]uint8, 256)
	var sc BatchScratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		StepBothBatch(prg, seeds, ts, cw, next, nextT, &sc)
	}
	reportNsPerNode(b, 128)
}

// BenchmarkStepLeafBatch128 measures the fused final step on a 128-wide
// frontier against the two-pass pipeline it replaces (StepBothBatch into a
// terminal buffer, LeafValuesInto over it): same arithmetic, no frontier
// round trip.
func BenchmarkStepLeafBatch128(b *testing.B) {
	prg := NewAESPRG()
	k0, cw, seeds, ts := benchFrontier(b)
	var sc BatchScratch
	dst := make([]uint32, 2*128*k0.GroupSize())
	b.Run("fused", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			StepLeafBatch(prg, &k0, seeds, ts, dst, &sc)
		}
		reportNsPerNode(b, 128)
	})
	term := make([]Seed, 256)
	termT := make([]uint8, 256)
	b.Run("unfused", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			StepBothBatch(prg, seeds, ts, cw, term, termT, &sc)
			LeafValuesInto(&k0, term, termT, dst)
		}
		reportNsPerNode(b, 128)
	})
}

// zeroReader is a deterministic randomness source for benchmark key
// generation.
type zeroReader struct{}

func (zeroReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(i)
	}
	return len(p), nil
}
