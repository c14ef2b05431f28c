package strategy

import (
	"math/rand"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"gpudpf/internal/dpf"
)

// forceGOMAXPROCS raises GOMAXPROCS for the test so the worker fan-out
// actually runs parallel even on single-core CI shards (Go happily
// oversubscribes), restoring the old value on cleanup. Bit-identity must
// hold at ANY setting — this just makes the parallel code path execute.
func forceGOMAXPROCS(t *testing.T, n int) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// parWorkerCounts is the worker-count sweep the acceptance criteria pin:
// 1 (must collapse to the sequential pass), 2, 3 (uneven splits), and 8
// (more workers than blocks — the clamp path).
var parWorkerCounts = []int{1, 2, 3, 8}

// TestAccumulateTileParMatchesSequential: kernel-level bit-identity of the
// row-block parallel accumulate against the sequential pass and the scalar
// loop, across worker counts × lane widths × contiguous/fragmented views ×
// a tile on either side of the amx tier's 16-query rule (20 queries: one
// whole and one partial query tile per row block, where the host has the
// tier). Rows are sized to a non-integral number of blocks so the last
// block is short, and the fragmented view's cuts land wherever they like
// relative to block boundaries.
func TestAccumulateTileParMatchesSequential(t *testing.T) {
	forceGOMAXPROCS(t, 8)
	for _, queries := range []int{5, 20} {
		testAccumulateTilePar(t, queries)
	}
}

func testAccumulateTilePar(t *testing.T, queries int) {
	rng := rand.New(rand.NewSource(42))
	rows := 2*parMinBlockRows + 777
	for _, lanes := range []int{1, 4, 16} {
		tab := buildTable(t, rows, lanes, int64(lanes))
		leaves := make([][]uint32, queries)
		for q := range leaves {
			leaves[q] = make([]uint32, rows)
			for j := range leaves[q] {
				leaves[q][j] = rng.Uint32()
			}
		}
		views := []struct {
			name string
			v    TableView
		}{
			{"contiguous", tab.View()},
			{"fragmented", fragView{t: tab, cuts: randomCuts(rng, rows, 97)}},
		}
		for _, lo := range []int{0, 333} {
			hi := rows - 111
			want := NewAnswers(queries, lanes)
			if err := accumulateTile(tab.View(), lo, hi, sliceLeaves(leaves, lo), want, 1); err != nil {
				t.Fatal(err)
			}
			scalar := NewAnswers(queries, lanes)
			if err := accumulateTileScalar(tab.View(), lo, hi, sliceLeaves(leaves, lo), scalar); err != nil {
				t.Fatal(err)
			}
			for q := range want {
				for l := range want[q] {
					if want[q][l] != scalar[q][l] {
						t.Fatalf("queries=%d lanes=%d q=%d lane=%d: sequential %d, scalar %d", queries, lanes, q, l, want[q][l], scalar[q][l])
					}
				}
			}
			for _, vw := range views {
				for _, w := range parWorkerCounts {
					got := NewAnswers(queries, lanes)
					if err := accumulateTile(vw.v, lo, hi, sliceLeaves(leaves, lo), got, w); err != nil {
						t.Fatalf("queries=%d lanes=%d %s workers=%d: %v", queries, lanes, vw.name, w, err)
					}
					for q := range want {
						for l := range want[q] {
							if got[q][l] != want[q][l] {
								t.Fatalf("queries=%d lanes=%d %s workers=%d q=%d lane=%d: got %d want %d",
									queries, lanes, vw.name, w, q, l, got[q][l], want[q][l])
							}
						}
					}
				}
			}
		}
	}
}

// sliceLeaves re-bases full-domain leaf vectors so index 0 is range row lo
// (the leaves[q][row-leafLo] convention of accumulateTile).
func sliceLeaves(leaves [][]uint32, lo int) [][]uint32 {
	out := make([][]uint32, len(leaves))
	for q := range leaves {
		out[q] = leaves[q][lo:]
	}
	return out
}

// TestParallelStrategyBitIdentity is the acceptance property test: for
// every executor × worker count {1,2,3,8} × PRF × contiguous/fragmented
// view × batch {1, 3, 40}, s with Workers w answers bit-identically to the
// sequential s over a non-power-of-two table (the last row block is
// short). The 40-key batch spans two tiles; the 1- and 3-key batches are
// narrower than most budgets, so one key's blocks expand on several
// cores; the fragmented view's cuts split expansion blocks. The counted
// PRF blocks stay pinned: equal to the sequential run's, since every tree
// node is expanded once whoever is handed its rows.
func TestParallelStrategyBitIdentity(t *testing.T) {
	forceGOMAXPROCS(t, 8)
	rng := rand.New(rand.NewSource(7))
	rows := 2*parMinBlockRows + 777
	const lanes = 4
	tab := buildTable(t, rows, lanes, 11)
	frag := fragView{t: tab, cuts: randomCuts(rng, rows, 61)}
	prgs := []struct {
		name string
		prg  dpf.PRG
	}{
		{"aes128", dpf.NewAESPRG()},
	}
	for _, pc := range prgs {
		all, _, _ := genBatch(t, pc.prg, tab, 40, 23)
		for _, batch := range []int{1, 3, 40} {
			keys := all[:batch]
			for _, s := range executors() {
				var seqCtr Counters
				want := NewAnswers(batch, lanes)
				if err := s.RunRangeInto(pc.prg, keys, tab.View(), 0, rows, &seqCtr, want); err != nil {
					t.Fatalf("%s/%s batch=%d sequential: %v", s.Name(), pc.name, batch, err)
				}
				seq := seqCtr.Snapshot().PRFBlocks
				for _, w := range parWorkerCounts {
					ps := s
					ps.Workers = w
					for _, vw := range []struct {
						name string
						v    TableView
					}{{"contiguous", tab.View()}, {"fragmented", frag}} {
						fail := func(format string, args ...any) {
							t.Helper()
							t.Fatalf("%s/%s batch=%d workers=%d %s: "+format,
								append([]any{s.Name(), pc.name, batch, w, vw.name}, args...)...)
						}
						var ctr Counters
						got := NewAnswers(batch, lanes)
						if err := ps.RunRangeInto(pc.prg, keys, vw.v, 0, rows, &ctr, got); err != nil {
							fail("%v", err)
						}
						if !reflect.DeepEqual(got, want) {
							fail("answers differ from the sequential run")
						}
						if par := ctr.Snapshot().PRFBlocks; par != seq {
							fail("counted %d PRF blocks, want the sequential run's %d", par, seq)
						}
					}
				}
			}
		}
	}
}

// countingPRG is a PRF that records the most batch calls it ever had in
// flight at once; yielding inside the call lets any other expansion
// goroutine enter.
type countingPRG struct {
	dpf.PRG
	inflight, peak atomic.Int64
}

func (p *countingPRG) ExpandBatch(seeds []dpf.Seed, left, right []dpf.Seed, tL, tR []uint8) {
	n := p.inflight.Add(1)
	for old := p.peak.Load(); n > old && !p.peak.CompareAndSwap(old, n); old = p.peak.Load() {
	}
	runtime.Gosched()
	p.PRG.ExpandBatch(seeds, left, right, tL, tR)
	p.inflight.Add(-1)
}

// TestParallelStrategyWorkerBudget: Workers is the whole core budget of a
// run. Under GOMAXPROCS 8, a run with Workers w never has more than w PRF
// batch calls in flight — for a 1-key tile (leaf-range split), a 3-key tile
// (query fan-out) and two tiles (expand/stream overlap) alike — and
// Workers 1 expands on the calling goroutine alone.
func TestParallelStrategyWorkerBudget(t *testing.T) {
	forceGOMAXPROCS(t, 8)
	rows := 2*parMinBlockRows + 777
	tab := buildTable(t, rows, 2, 5)
	prg := &countingPRG{PRG: dpf.NewAESPRG()}
	keys, _, _ := genBatch(t, prg, tab, 40, 6)
	for _, batch := range []int{1, 3, 40} {
		for _, w := range []int{1, 2, 3} {
			prg.peak.Store(0)
			var ctr Counters
			if _, err := Run(MemBoundTree{K: 8, Workers: w}, prg, keys[:batch], tab.View(), &ctr); err != nil {
				t.Fatal(err)
			}
			if peak := prg.peak.Load(); peak > int64(w) {
				t.Errorf("batch=%d workers=%d: %d PRF batch calls in flight at once", batch, w, peak)
			}
		}
	}
}

// TestParallelForCoversAll: ParallelFor visits every index of [0, n)
// exactly once, for empty, tiny and many-run ranges.
func TestParallelForCoversAll(t *testing.T) {
	forceGOMAXPROCS(t, 4)
	for _, n := range []int{0, 1, 7, 100, 4096} {
		var hits atomic.Int64
		seen := make([]atomic.Bool, n)
		ParallelFor(n, 4, func(i int) {
			if seen[i].Swap(true) {
				t.Errorf("n=%d: index %d visited twice", n, i)
			}
			hits.Add(1)
		})
		if hits.Load() != int64(n) {
			t.Errorf("n=%d: %d hits", n, hits.Load())
		}
	}
}

// TestParallelForNBoundsWorkers: ParallelFor covers [0, n) once and never
// runs more than its worker budget at a time, whatever GOMAXPROCS is.
func TestParallelForNBoundsWorkers(t *testing.T) {
	forceGOMAXPROCS(t, 8)
	for _, workers := range []int{0, 1, 2, 3} {
		var inflight, peak, hits atomic.Int64
		ParallelFor(64, workers, func(int) {
			n := inflight.Add(1)
			for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
			}
			runtime.Gosched()
			hits.Add(1)
			inflight.Add(-1)
		})
		if hits.Load() != 64 || peak.Load() > int64(max(workers, 1)) {
			t.Errorf("workers=%d: %d hits, peak %d concurrent", workers, hits.Load(), peak.Load())
		}
	}
}
