//go:build amd64 && !purego

package strategy

import (
	"fmt"
	"math/rand"
	"testing"

	"gpudpf/internal/cpufeat"
)

// accAsmTier is one compiled asm accumulate tier and the reason it cannot
// run here, if any.
type accAsmTier struct{ name, tier, missing string }

func accAsmTiers() []accAsmTier {
	tiers := []accAsmTier{{name: "avx2", tier: accAVX2}, {name: "avx512", tier: accAVX512}}
	if !cpufeat.AVX2 {
		// Both tiers: the avx512 tier's lone queries run the avx2 body.
		tiers[0].missing = "CPUID.7.0:EBX.AVX2 (bit 5) not set, or YMM state not OS-enabled"
		tiers[1].missing = tiers[0].missing
	} else if !cpufeat.AVX512BW {
		tiers[1].missing = "CPUID.7.0:EBX.AVX512F/BW (bits 16, 30) not set, or ZMM state not OS-enabled"
	}
	return tiers
}

const accCanary = 0xdeadbeef

// canaryBatch is NewAnswers with a canary word after every buffer (the
// buffers' capacity stops short of it), so a store past lane lanes-1 of
// any query is caught by checkCanaries.
func canaryBatch(n, lanes int) (ans [][]uint32, flat []uint32) {
	flat = make([]uint32, n*(lanes+1))
	ans = make([][]uint32, n)
	for i := range ans {
		ans[i] = flat[i*(lanes+1) : i*(lanes+1)+lanes : i*(lanes+1)+lanes]
		flat[i*(lanes+1)+lanes] = accCanary
	}
	return ans, flat
}

func checkCanaries(t *testing.T, what string, flat []uint32, lanes int) {
	t.Helper()
	for i := lanes; i < len(flat); i += lanes + 1 {
		if flat[i] != accCanary {
			t.Fatalf("%s: word after answer buffer %d overwritten (%#x)", what, i/(lanes+1), flat[i])
		}
	}
}

// TestAccumulateTileKernelTiersMatchScalar pins each compiled asm tier —
// called explicitly, not through the host's dispatch — bit-identical to
// accumulateChunkScalar and to the naive definition. Per tier it sweeps
// lanes 1–100, 256 and 1024 (every masked-tail width on both vector sizes,
// with and without whole-vector tiles before it) × tile sizes 1–32 (every
// remainder mod the 4-query body) × chunk row counts 1–70 and counts
// straddling the byte-derived row block, always at a non-zero chunk row
// and leaf origin, plus randomly fragmented views through the chunk
// iterator. The table chunk ends at its slice's capacity with canary words
// behind it, and every answer buffer is followed by one.
func TestAccumulateTileKernelTiersMatchScalar(t *testing.T) {
	lanesSweep := []int{256, 1024}
	for l := 1; l <= 100; l++ {
		lanesSweep = append(lanesSweep, l)
	}
	for _, k := range accAsmTiers() {
		t.Run(k.name, func(t *testing.T) {
			if k.missing != "" {
				t.Skip(k.missing)
			}
			rng := rand.New(rand.NewSource(1615))
			for _, lanes := range lanesSweep {
				block := max(1, accBlockWords/lanes)
				type shape struct{ tile, rows int }
				var shapes []shape
				for tile := 1; tile <= tileQueries; tile++ {
					shapes = append(shapes, shape{tile, 1 + rng.Intn(70)})
				}
				for rows := 1; rows <= 70; rows++ {
					shapes = append(shapes, shape{1 + rng.Intn(tileQueries), rows})
				}
				for _, rows := range []int{block - 1, block, block + 1, 2*block + 3} {
					if rows > 70 {
						shapes = append(shapes, shape{1 + rng.Intn(7), rows})
					}
				}
				for _, sh := range shapes {
					checkAccumulateChunkTier(t, rng, k.tier, lanes, sh.tile, sh.rows)
				}
				checkAccumulateFragmentedTier(t, rng, k.tier, lanes)
			}
		})
	}
}

// checkAccumulateChunkTier runs one chunk of rows [row, row+n) with leaves
// indexed from leafLo < row through the tier, the scalar loop and the
// naive definition, starting from the same non-zero answers.
func checkAccumulateChunkTier(t *testing.T, rng *rand.Rand, tier string, lanes, tile, n int) {
	t.Helper()
	what := fmt.Sprintf("lanes=%d tile=%d rows=%d", lanes, tile, n)
	row := 1 + rng.Intn(9)
	leafLo := rng.Intn(row)
	backing := make([]uint32, n*lanes+8)
	for i := range backing {
		backing[i] = rng.Uint32()
	}
	data := backing[: n*lanes : n*lanes]
	tail := append([]uint32(nil), backing[n*lanes:]...)
	lv := randomLeafTile(rng, tile, row-leafLo+n)
	got, gotFlat := canaryBatch(tile, lanes)
	wantScalar := NewAnswers(tile, lanes)
	wantNaive := NewAnswers(tile, lanes)
	for q := range got {
		for l := range got[q] {
			v := rng.Uint32()
			got[q][l], wantScalar[q][l], wantNaive[q][l] = v, v, v
		}
	}
	accumulateChunkSIMD(tier, data, lanes, row, leafLo, lv, got)
	accumulateChunkScalar(data, lanes, row, leafLo, lv, wantScalar)
	for j := 0; j < n; j++ {
		for q := range lv {
			for l := 0; l < lanes; l++ {
				wantNaive[q][l] += lv[q][row+j-leafLo] * data[j*lanes+l]
			}
		}
	}
	for q := range got {
		for l := range got[q] {
			if got[q][l] != wantScalar[q][l] || got[q][l] != wantNaive[q][l] {
				t.Fatalf("%s row=%d leafLo=%d q=%d lane=%d: tier %d, scalar %d, naive %d",
					what, row, leafLo, q, l, got[q][l], wantScalar[q][l], wantNaive[q][l])
			}
		}
	}
	checkCanaries(t, what, gotFlat, lanes)
	for i, v := range tail {
		if backing[n*lanes+i] != v {
			t.Fatalf("%s: word %d after the table chunk overwritten", what, i)
		}
	}
}

// checkAccumulateFragmentedTier streams a sub-range of a randomly cut view
// through the tier chunk by chunk, as accumulateTile does for overlay and
// paged snapshots, against the scalar pass over the contiguous view.
func checkAccumulateFragmentedTier(t *testing.T, rng *rand.Rand, tier string, lanes int) {
	t.Helper()
	const rows = 157
	tab := buildTable(t, rows, lanes, int64(lanes))
	v := fragView{t: tab, cuts: randomCuts(rng, rows, 23)}
	lo := rng.Intn(40)
	hi := rows - rng.Intn(40)
	tile := 1 + rng.Intn(tileQueries)
	lv := randomLeafTile(rng, tile, hi-lo)
	got, gotFlat := canaryBatch(tile, lanes)
	want := NewAnswers(tile, lanes)
	err := v.Chunks(lo, hi, func(c Chunk) error {
		accumulateChunkSIMD(tier, c.Data, lanes, c.Row, lo, lv, got)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := accumulateTileScalar(tab.View(), lo, hi, lv, want); err != nil {
		t.Fatal(err)
	}
	for q := range got {
		for l := range got[q] {
			if got[q][l] != want[q][l] {
				t.Fatalf("fragmented lanes=%d tile=%d rows=[%d,%d) q=%d lane=%d: tier %d != scalar %d",
					lanes, tile, lo, hi, q, l, got[q][l], want[q][l])
			}
		}
	}
	checkCanaries(t, fmt.Sprintf("fragmented lanes=%d", lanes), gotFlat, lanes)
}

// BenchmarkAccumulateKernelTiers is BenchmarkAccumulateKernel with each
// asm tier forced, so the narrower tier's numbers can be read on a host
// whose dispatch picks the wider one.
func BenchmarkAccumulateKernelTiers(b *testing.B) {
	for _, sh := range accBenchShapes {
		tab, lv, ans := accBenchInputs(b, sh)
		for _, k := range accAsmTiers() {
			b.Run(fmt.Sprintf("%s/%s", sh, k.name), func(b *testing.B) {
				if k.missing != "" {
					b.Skip(k.missing)
				}
				runAccBench(b, sh, func() { accumulateChunkSIMD(k.tier, tab.Data, sh.lanes, 0, 0, lv, ans) })
			})
		}
	}
}
