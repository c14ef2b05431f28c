package strategy

import (
	"fmt"
	"math/rand"
	"testing"
)

// naiveAccumulate is the straight-line definition of the tiled matmul,
// independent of both accumulateRow and the SIMD kernel: answers[q][l] +=
// leaves[q][j-lo] * tab.Data[j*lanes+l] mod 2^32 for every row in [lo, hi).
func naiveAccumulate(tab *Table, lo, hi int, leaves [][]uint32, answers [][]uint32) {
	for j := lo; j < hi; j++ {
		for q := range leaves {
			leaf := leaves[q][j-lo]
			for l := 0; l < tab.Lanes; l++ {
				answers[q][l] += leaf * tab.Data[j*tab.Lanes+l]
			}
		}
	}
}

// accumulateTileScalar forces the scalar kernel over the view's chunks —
// the reference implementation the dispatched kernel must match.
func accumulateTileScalar(v TableView, lo, hi int, leaves, answers [][]uint32) error {
	lanes := v.Lanes()
	return v.Pass(lo, hi, 1, func(_ int, c Chunk) error {
		accumulateChunkScalar(c.Data, lanes, c.Row, lo, leaves, answers)
		return nil
	})
}

// randomLeafTile fills a tile-shaped leaf matrix with arbitrary values:
// the accumulate kernels are pure mod-2^32 arithmetic, so the property
// holds for any inputs, not just genuine DPF shares.
func randomLeafTile(rng *rand.Rand, queries, rows int) [][]uint32 {
	lv := make([][]uint32, queries)
	for q := range lv {
		lv[q] = make([]uint32, rows)
		for j := range lv[q] {
			lv[q][j] = rng.Uint32()
		}
	}
	return lv
}

// TestAccumulateTileKernelMatchesScalar pins the dispatched accumulateTile
// — the widest asm tier on hosts that have one, the scalar loop elsewhere
// and under -tags purego — bit-identical to accumulateTileScalar and to
// the naive definition, across lane counts straddling every boundary
// (below one vector, non-multiples of the vector width exercising the
// masked tail, and above the 64-lane rowBuf staging limit), tile sizes
// 1..32, and random row ranges.
func TestAccumulateTileKernelMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(1606))
	for _, lanes := range []int{1, 4, 8, 13, 16, 64, 100} {
		t.Run(fmt.Sprintf("lanes=%d", lanes), func(t *testing.T) {
			rows := 3*256 + 17
			tab := buildTable(t, rows, lanes, int64(lanes))
			for tile := 1; tile <= tileQueries; tile++ {
				lo := rng.Intn(rows)
				hi := lo + 1 + rng.Intn(rows-lo)
				lv := randomLeafTile(rng, tile, hi-lo)
				got := NewAnswers(tile, lanes)
				wantScalar := NewAnswers(tile, lanes)
				wantNaive := NewAnswers(tile, lanes)
				if err := accumulateTile(tab.View(), lo, hi, lv, got, 1); err != nil {
					t.Fatal(err)
				}
				if err := accumulateTileScalar(tab.View(), lo, hi, lv, wantScalar); err != nil {
					t.Fatal(err)
				}
				naiveAccumulate(tab, lo, hi, lv, wantNaive)
				for q := range got {
					for l := range got[q] {
						if got[q][l] != wantScalar[q][l] {
							t.Fatalf("tile=%d rows=[%d,%d) q=%d lane=%d: dispatch %d != scalar %d",
								tile, lo, hi, q, l, got[q][l], wantScalar[q][l])
						}
						if got[q][l] != wantNaive[q][l] {
							t.Fatalf("tile=%d rows=[%d,%d) q=%d lane=%d: dispatch %d != naive %d",
								tile, lo, hi, q, l, got[q][l], wantNaive[q][l])
						}
					}
				}
			}
		})
	}
}

// BenchmarkAccumulateKernel measures the answer kernel A/B, without the
// AES expansion half of the hot path, on the shapes where the kernels
// differ: the expansion-bound bench table (64-byte rows) and the co-located
// wide-row table (4 KiB rows, past L2) at a full tile, at paged-update's
// 4-query tile (also over one 256 KiB page of it, in cache) and at batch
// 1, plus a small in-cache table at batch 1.
// "dispatch" is whatever accumulateTile selects on this host (and must not
// allocate), "scalar" forces the fallback loop; the forced-tier numbers
// are BenchmarkAccumulateKernelTiers on amd64.
func BenchmarkAccumulateKernel(b *testing.B) {
	for _, sh := range accBenchShapes {
		tab, lv, ans := accBenchInputs(b, sh)
		for _, k := range []struct {
			name string
			fn   func(TableView, int, int, [][]uint32, [][]uint32) error
		}{
			{"dispatch", func(v TableView, lo, hi int, lv, ans [][]uint32) error { return accumulateTile(v, lo, hi, lv, ans, 1) }},
			{"scalar", accumulateTileScalar},
		} {
			b.Run(fmt.Sprintf("%s/%s", sh, k.name), func(b *testing.B) {
				v := tab.View()
				runAccBench(b, sh, func() {
					if err := k.fn(v, 0, sh.rows, lv, ans); err != nil {
						b.Fatal(err)
					}
				})
				if k.name == "dispatch" && testing.AllocsPerRun(1, func() { _ = k.fn(v, 0, sh.rows, lv, ans) }) != 0 {
					b.Fatal("dispatched accumulateTile allocates")
				}
			})
		}
	}
}

type accBenchShape struct{ rows, lanes, queries int }

func (s accBenchShape) String() string {
	return fmt.Sprintf("%dx%d/q%d", s.rows, s.lanes, s.queries)
}

var accBenchShapes = []accBenchShape{
	{1 << 16, 16, 32}, {1 << 14, 1024, 32}, {1 << 14, 1024, 16}, {1 << 14, 1024, 4}, {64, 1024, 4}, {64, 1024, 3}, {64, 1024, 2}, {1 << 14, 1024, 1}, {1 << 10, 64, 1},
}

func accBenchInputs(b *testing.B, sh accBenchShape) (*Table, [][]uint32, [][]uint32) {
	tab, err := NewTable(sh.rows, sh.lanes)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := range tab.Data {
		tab.Data[i] = rng.Uint32()
	}
	return tab, randomLeafTile(rng, sh.queries, sh.rows), NewAnswers(sh.queries, sh.lanes)
}

// runAccBench times one tile pass per iteration and reports it as table
// bytes streamed (MB/s) and as multiply-accumulates (GMAC/s), the unit the
// kernel's ceiling is stated in.
func runAccBench(b *testing.B, sh accBenchShape, pass func()) {
	b.ReportAllocs()
	b.SetBytes(int64(sh.rows) * int64(sh.lanes) * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass()
	}
	macs := float64(b.N) * float64(sh.rows) * float64(sh.lanes) * float64(sh.queries)
	b.ReportMetric(macs/b.Elapsed().Seconds()/1e9, "GMAC/s")
}

// TestAccumulateTileWideLanes is the >64-lane regression test: rows wider
// than the scalar path's rowBuf staging buffer take its direct-row branch,
// and on hosts with an asm tier the same width ends in a 4-lane masked
// vector — both must agree with the naive definition. (Before the
// kernel dispatch split, only the ≤64-lane staging branch was ever
// exercised by the strategy tests.)
func TestAccumulateTileWideLanes(t *testing.T) {
	rng := rand.New(rand.NewSource(1607))
	const lanes, rows = 100, 517
	tab := buildTable(t, rows, lanes, 7)
	for _, tile := range []int{1, 5, tileQueries} {
		lv := randomLeafTile(rng, tile, rows)
		got := NewAnswers(tile, lanes)
		want := NewAnswers(tile, lanes)
		if err := accumulateTile(tab.View(), 0, rows, lv, got, 1); err != nil {
			t.Fatal(err)
		}
		naiveAccumulate(tab, 0, rows, lv, want)
		for q := range got {
			for l := range got[q] {
				if got[q][l] != want[q][l] {
					t.Fatalf("tile=%d q=%d lane=%d: got %d want %d", tile, q, l, got[q][l], want[q][l])
				}
			}
		}
	}
}
