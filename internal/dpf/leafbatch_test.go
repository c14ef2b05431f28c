package dpf

import (
	"crypto/rand"
	"fmt"
	mrand "math/rand"
	"testing"
)

// TestStepLeafBatchMatchesUnfused pins the fused final step bit-identical
// to the two-pass pipeline it replaces (StepBothBatch into a terminal
// frontier, then LeafValuesInto over it), for every PRF, every
// early-termination depth, both parties, and frontier widths on both
// sides of the AES kernels' block sizes (1-3 take the padded tail).
func TestStepLeafBatchMatchesUnfused(t *testing.T) {
	rng := mrand.New(mrand.NewSource(6))
	for _, prg := range allPRGs(t) {
		t.Run(prg.Name(), func(t *testing.T) {
			for _, early := range []int{0, 1, 2} {
				const bits = 7
				alpha := uint64(rng.Intn(1 << bits))
				k0, k1, err := GenEarly(prg, alpha, bits, rng.Uint32()|1, early, rand.Reader)
				if err != nil {
					t.Fatal(err)
				}
				for _, k := range []*Key{&k0, &k1} {
					// Walk the real tree to one level above the terminal
					// frontier, so the fused step sees genuine seeds and
					// control bits.
					var sc BatchScratch
					seeds, ts := []Seed{k.Root}, []uint8{k.Party}
					depth := k.TreeDepth()
					for level := 0; level < depth-1; level++ {
						next := make([]Seed, 2*len(seeds))
						nextT := make([]uint8, 2*len(seeds))
						StepBothBatch(prg, seeds, ts, k.CWs[level], next, nextT, &sc)
						seeds, ts = next, nextT
					}
					gl := k.GroupSize()
					for _, w := range []int{1, 2, 3, 7, len(seeds)} {
						if w > len(seeds) {
							continue
						}
						fused := make([]uint32, 2*w*gl)
						StepLeafBatch(prg, k, seeds[:w], ts[:w], fused, &sc)

						term := make([]Seed, 2*w)
						termT := make([]uint8, 2*w)
						StepBothBatch(prg, seeds[:w], ts[:w], k.CWs[depth-1], term, termT, &sc)
						want := make([]uint32, 2*w*gl)
						LeafValuesInto(k, term, termT, want)

						for i := range want {
							if fused[i] != want[i] {
								t.Fatalf("early=%d party=%d w=%d out[%d]: fused %d != unfused %d",
									early, k.Party, w, i, fused[i], want[i])
							}
						}
					}
				}
			}
		})
	}
}

// TestExpandLeavesMatchesFrontier pins the fused full expansion
// (EvalFullInto, whose last level is StepLeafBatch) to the unfused
// expandFrontier + LeafValuesInto pipeline, and both to correct share
// reconstruction at alpha.
func TestExpandLeavesMatchesFrontier(t *testing.T) {
	rng := mrand.New(mrand.NewSource(7))
	for _, prg := range allPRGs(t) {
		t.Run(prg.Name(), func(t *testing.T) {
			for _, early := range []int{0, 1, 2} {
				for _, bits := range []int{1, 2, 3, 8} {
					e := min(early, bits-1)
					alpha := uint64(rng.Intn(1 << bits))
					beta := rng.Uint32() | 1
					k0, k1, err := GenEarly(prg, alpha, bits, beta, e, rand.Reader)
					if err != nil {
						t.Fatal(err)
					}
					var sum []uint32
					for _, k := range []*Key{&k0, &k1} {
						var fused FrontierScratch
						got := make([]uint32, k.Domain())
						EvalFullInto(prg, k, got, &fused)

						seeds, ts := expandFrontier(prg, k)
						want := make([]uint32, k.Domain())
						LeafValuesInto(k, seeds, ts, want)

						for i := range want {
							if got[i] != want[i] {
								t.Fatalf("bits=%d early=%d party=%d leaf %d: fused %d != unfused %d",
									bits, e, k.Party, i, got[i], want[i])
							}
						}
						if sum == nil {
							sum = got
						} else {
							for i := range sum {
								sum[i] += got[i]
							}
						}
					}
					for i, v := range sum {
						want := uint32(0)
						if uint64(i) == alpha {
							want = beta
						}
						if v != want {
							t.Fatalf(fmt.Sprintf("bits=%d early=%d leaf %d: shares sum to %d, want %d", bits, e, i, v, want))
						}
					}
				}
			}
		})
	}
}
