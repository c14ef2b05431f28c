package strategy

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"gpudpf/internal/dpf"
	"gpudpf/internal/gpu"
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
			if err := accumulateTile(tab.View(), lo, hi, sliceLeaves(leaves, lo), want); err != nil {
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
					if err := accumulateTilePar(vw.v, lo, hi, sliceLeaves(leaves, lo), got, w); err != nil {
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
// every strategy × worker count {1,2,3,8} × PRF × contiguous/fragmented
// view, WithWorkers(s, w) answers bit-identically to the sequential s, on
// a multi-tile batch (so membound's pipelined expand/stream overlap runs)
// over a non-power-of-two table (so the domain padding clip is exercised).
// The counted PRF blocks must not change either — the counters stay pinned
// to the analytic model however the work fans out.
func TestParallelStrategyBitIdentity(t *testing.T) {
	forceGOMAXPROCS(t, 8)
	rng := rand.New(rand.NewSource(7))
	rows := 2*parMinBlockRows + 777
	const lanes, batch = 4, 40 // two tiles, the second short
	tab := buildTable(t, rows, lanes, 11)
	frag := fragView{t: tab, cuts: randomCuts(rng, rows, 61)}
	prgs := []struct {
		name string
		prg  dpf.PRG
	}{
		{"aes128", dpf.NewAESPRG()},
		{"chacha20", dpf.NewChaChaPRG()},
	}
	for _, pc := range prgs {
		keys, _, _ := genBatch(t, pc.prg, tab, batch, 23)
		for _, s := range allStrategies() {
			var seqCtr gpu.Counters
			want := NewAnswers(batch, lanes)
			if err := s.RunRangeInto(pc.prg, keys, tab.View(), 0, rows, &seqCtr, want); err != nil {
				t.Fatalf("%s/%s sequential: %v", s.Name(), pc.name, err)
			}
			seq := seqCtr.Snapshot()
			for _, w := range parWorkerCounts {
				ps := WithWorkers(s, w)
				for _, vw := range []struct {
					name string
					v    TableView
				}{{"contiguous", tab.View()}, {"fragmented", frag}} {
					var ctr gpu.Counters
					got := NewAnswers(batch, lanes)
					if err := ps.RunRangeInto(pc.prg, keys, vw.v, 0, rows, &ctr, got); err != nil {
						t.Fatalf("%s/%s workers=%d %s: %v", s.Name(), pc.name, w, vw.name, err)
					}
					for q := range want {
						for l := range want[q] {
							if got[q][l] != want[q][l] {
								t.Fatalf("%s/%s workers=%d %s q=%d lane=%d: got %d want %d",
									s.Name(), pc.name, w, vw.name, q, l, got[q][l], want[q][l])
							}
						}
					}
					if par := ctr.Snapshot(); par.PRFBlocks != seq.PRFBlocks {
						t.Fatalf("%s/%s workers=%d %s: counted %d PRF blocks parallel, %d sequential",
							s.Name(), pc.name, w, vw.name, par.PRFBlocks, seq.PRFBlocks)
					}
				}
			}
		}
	}
}

// TestWithWorkersPreservesType: WithWorkers must return the same concrete
// strategy type (Name and type assertions stay stable), and budgets <= 1
// or unsupported strategies come back unchanged.
func TestWithWorkersPreservesType(t *testing.T) {
	for _, s := range allStrategies() {
		ps := WithWorkers(s, 4)
		if got, want := fmt.Sprintf("%T", ps), fmt.Sprintf("%T", s); got != want {
			t.Errorf("WithWorkers changed type %s -> %s", want, got)
		}
		if ps.Name() != s.Name() {
			t.Errorf("WithWorkers changed name %s -> %s", s.Name(), ps.Name())
		}
		if one := WithWorkers(s, 1); one != s {
			t.Errorf("%s: WithWorkers(1) should be identity", s.Name())
		}
	}
	m := WithWorkers(MemBoundTree{K: 8, Fused: true}, 6)
	if mb, ok := m.(MemBoundTree); !ok || mb.Workers != 6 {
		t.Errorf("MemBoundTree budget not bound: %#v", m)
	}
}
