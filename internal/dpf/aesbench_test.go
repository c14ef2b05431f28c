package dpf

import "testing"

// BenchmarkScalarExpand measures the scalar AES Expand (Gen, EvalAt, the
// range walk): one lane of the batch kernel with hardware AES, one
// aes.NewCipher (heap allocations + key schedule) per call without.
func BenchmarkScalarExpand(b *testing.B) {
	prg := NewAESPRG()
	var s Seed
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l, _, _, _ := prg.Expand(s)
		s = l
	}
}

// BenchmarkBatchExpand128 measures a 128-wide ExpandBatch (one K-wide
// frontier advance) on the kernel AESKernel() names, zero allocations on
// every one. ns/node is the figure to hold against the PRF ceiling: one
// node is one key schedule plus two blocks.
func BenchmarkBatchExpand128(b *testing.B) {
	prg := NewAESPRG()
	seeds := make([]Seed, 128)
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
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/128, "ns/node")
}

// BenchmarkStepLeafBatch128 measures the fused final step on a 128-wide
// frontier against the two-pass pipeline it replaces (StepBothBatch into a
// terminal buffer, LeafValuesInto over it): same arithmetic, no frontier
// round trip.
func BenchmarkStepLeafBatch128(b *testing.B) {
	prg := NewAESPRG()
	k0, _, err := GenEarly(prg, 5, 10, []uint32{1}, DefaultEarlyBits, zeroReader{})
	if err != nil {
		b.Fatal(err)
	}
	seeds := make([]Seed, 128)
	ts := make([]uint8, 128)
	var sc BatchScratch
	dst := make([]uint32, 2*128*k0.GroupLanes())
	b.Run("fused", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			StepLeafBatch(prg, &k0, seeds, ts, dst, &sc)
		}
	})
	term := make([]Seed, 256)
	termT := make([]uint8, 256)
	b.Run("unfused", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			StepBothBatch(prg, seeds, ts, k0.CWs[k0.TreeDepth()-1], term, termT, &sc)
			LeafValuesInto(&k0, term, termT, dst)
		}
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
