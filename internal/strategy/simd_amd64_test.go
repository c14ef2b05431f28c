//go:build amd64 && !purego

package strategy

import (
	"fmt"
	"math/rand"
	randv2 "math/rand/v2"
	"runtime"
	"sync"
	"testing"

	"gpudpf/internal/cpufeat"
)

// pcgSource drives a math/rand generator from a seeded PCG, so the tier
// tests' inputs replay exactly on any Go release.
type pcgSource struct{ *randv2.PCG }

func (s pcgSource) Int63() int64 { return int64(s.Uint64() >> 1) }
func (pcgSource) Seed(int64)     {}

func pcgRand(seed uint64) *rand.Rand {
	return rand.New(pcgSource{randv2.NewPCG(seed, 0x9e3779b97f4a7c15)})
}

// accAsmTier is one compiled asm accumulate tier and the reason it cannot
// run here, if any.
type accAsmTier struct{ name, tier, missing string }

func accAsmTiers() []accAsmTier {
	tiers := []accAsmTier{{name: "avx2", tier: accAVX2}, {name: "avx512", tier: accAVX512}, {name: "amx", tier: accAMX}}
	if !cpufeat.AMXInt8 {
		tiers[2].missing = amxMissing
	}
	if !cpufeat.AVX2 {
		// Both tiers: the avx512 tier's lone queries run the avx2 body.
		tiers[0].missing = "CPUID.7.0:EBX.AVX2 (bit 5) not set, or YMM state not OS-enabled"
		tiers[1].missing = tiers[0].missing
	} else if !cpufeat.AVX512BW {
		tiers[1].missing = "CPUID.7.0:EBX.AVX512F/BW (bits 16, 30) not set, or ZMM state not OS-enabled"
	}
	return tiers
}

const amxMissing = "CPUID.7.0:EDX.AMX-TILE/AMX-INT8 (bits 24, 25) not set, tile state not OS-enabled, or the tile-data permission request refused"

const accCanary = 0xdeadbeef

// answersDiffer names the first lane where two answer batches differ, or
// returns "".
func answersDiffer(got, want [][]uint32) string {
	for q := range got {
		for l := range got[q] {
			if got[q][l] != want[q][l] {
				return fmt.Sprintf("q=%d lane=%d: got %d, want %d", q, l, got[q][l], want[q][l])
			}
		}
	}
	return ""
}

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
// iterator. The amx tier's sweep is cut to its own dispatch rule and
// panels instead: 15–33 queries (both sides of the 16-query rule, a
// partial second and a third query tile) × 63–300 rows (both sides of the
// 64-row rule, ragged 16-row steps, more than one plane ring), and a second
// fragmented view whose chunks are tall enough to reach the tile kernel. Inputs are PCG-seeded full-range
// words. The table chunk ends at its slice's capacity with canary words
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
			rng := pcgRand(1615)
			for _, lanes := range lanesSweep {
				block := max(1, accBlockWords/lanes)
				type shape struct{ tile, rows int }
				var shapes []shape
				if k.tier == accAMX {
					// Below either rule the tier runs the avx512 bodies, swept
					// above: two shapes pin that hand-over, the rest reach
					// the tile kernel.
					shapes = append(shapes, shape{amxQueries - 1, 300}, shape{tileQueries, amxMinRows - 1})
					for tile := amxQueries; tile <= tileQueries+1; tile++ {
						shapes = append(shapes, shape{tile, amxMinRows + rng.Intn(300-amxMinRows)})
					}
					for rows := amxMinRows; rows <= 300; rows += 1 + rng.Intn(24) {
						shapes = append(shapes, shape{amxQueries + rng.Intn(tileQueries+2-amxQueries), rows})
					}
				} else {
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
				}
				for _, sh := range shapes {
					checkAccumulateChunkTier(t, rng, k.tier, lanes, sh.tile, sh.rows)
				}
				checkAccumulateFragmentedTier(t, rng, k.tier, lanes, 157, 23, 1)
				if k.tier == accAMX {
					checkAccumulateFragmentedTier(t, rng, k.tier, lanes, 1100, 6, amxQueries)
				}
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
	accumulateChunkTier(tier, data, lanes, row, leafLo, lv, got)
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

// TestAccumulateTileAMXScratchCanaries runs the tile kernel on scratch the test
// owns: the words after its accumulator spill and after its plane ring
// must survive every shape (the ring wraps, the last query tile is short,
// the last lane tile narrow), and the answers must match the scalar loop.
func TestAccumulateTileAMXScratchCanaries(t *testing.T) {
	if !cpufeat.AMXInt8 {
		t.Skip(amxMissing)
	}
	rng := pcgRand(1617)
	sc := new(amxScratch)
	for i := range sc.cEnd {
		sc.cEnd[i], sc.aEnd[i] = accCanary, accCanary
	}
	for _, lanes := range []int{1, 15, 16, 17, 100, 1024} {
		for _, tile := range []int{16, 21, 33} {
			for _, n := range []int{64, 16 * (amxRingSteps + 1), 300, 8200} {
				if n*lanes > 1<<20 {
					continue
				}
				what := fmt.Sprintf("lanes=%d tile=%d rows=%d", lanes, tile, n)
				data := make([]uint32, n*lanes)
				for i := range data {
					data[i] = rng.Uint32()
				}
				lv := randomLeafTile(rng, tile, n+3)
				got, gotFlat := canaryBatch(tile, lanes)
				want := NewAnswers(tile, lanes)
				accumulateChunkAMX(sc, data, lanes, 5, 2, lv, got)
				accumulateChunkScalar(data, lanes, 5, 2, lv, want)
				if d := answersDiffer(got, want); d != "" {
					t.Fatalf("%s: amx against scalar: %s", what, d)
				}
				checkCanaries(t, what, gotFlat, lanes)
				for i := range sc.cEnd {
					if sc.cEnd[i] != accCanary || sc.aEnd[i] != accCanary {
						t.Fatalf("%s: word %d after a scratch buffer overwritten (c %#x, a %#x)", what, i, sc.cEnd[i], sc.aEnd[i])
					}
				}
			}
		}
	}
}

// TestAccumulateTileAMXConcurrentWithGC is the tile-state leak test: four
// goroutines run the tile kernel on their own inputs while a fifth
// allocates, forces collections and yields, on more Ps than the host has
// cores — so the kernel is interrupted by preemption signals and its
// threads are switched by the OS with tile registers live. Every asm call
// configures and releases its own tile state, so every answer must still
// equal the scalar loop's.
func TestAccumulateTileAMXConcurrentWithGC(t *testing.T) {
	if !cpufeat.AMXInt8 {
		t.Skip(amxMissing)
	}
	forceGOMAXPROCS(t, 8)
	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		var sink [][]uint32
		for {
			select {
			case <-stop:
				return
			default:
			}
			sink = append(sink[:0], make([]uint32, 1<<14), make([]uint32, 1<<10))
			runtime.GC()
			runtime.Gosched()
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := pcgRand(uint64(1700 + w))
			for iter := 0; iter < 150 && !t.Failed(); iter++ {
				lanes := []int{16, 100, 256, 37}[(w+iter)%4]
				tile := amxQueries + rng.Intn(tileQueries+1-amxQueries)
				n := amxMinRows + rng.Intn(1500)
				data := make([]uint32, n*lanes)
				for i := range data {
					data[i] = rng.Uint32()
				}
				lv := randomLeafTile(rng, tile, n)
				got := NewAnswers(tile, lanes)
				want := NewAnswers(tile, lanes)
				accumulateChunkTier(accAMX, data, lanes, 0, 0, lv, got)
				accumulateChunkScalar(data, lanes, 0, 0, lv, want)
				if d := answersDiffer(got, want); d != "" {
					t.Errorf("worker %d iter %d lanes=%d tile=%d rows=%d: amx against scalar: %s", w, iter, lanes, tile, n, d)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	churn.Wait()
}

// checkAccumulateFragmentedTier streams a sub-range of a rows-high view cut
// at `cuts` random rows through the tier chunk by chunk, as accumulateTile does for written and
// paged snapshots, against the scalar pass over the contiguous view.
func checkAccumulateFragmentedTier(t *testing.T, rng *rand.Rand, tier string, lanes, rows, cuts, minTile int) {
	t.Helper()
	tab := buildTable(t, rows, lanes, int64(lanes))
	v := fragView{t: tab, cuts: randomCuts(rng, rows, cuts)}
	lo := rng.Intn(40)
	hi := rows - rng.Intn(40)
	tile := minTile + rng.Intn(tileQueries+1-minTile)
	lv := randomLeafTile(rng, tile, hi-lo)
	got, gotFlat := canaryBatch(tile, lanes)
	want := NewAnswers(tile, lanes)
	err := v.Pass(lo, hi, 1, func(_ int, c Chunk) error {
		accumulateChunkTier(tier, c.Data, lanes, c.Row, lo, lv, got)
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
				runAccBench(b, sh, func() { accumulateChunkTier(k.tier, tab.Data, sh.lanes, 0, 0, lv, ans) })
			})
		}
	}
}
