package strategy

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"

	"gpudpf/internal/dpf"
)

// fragView serves a Table through an arbitrarily fragmented TableView:
// chunk boundaries fall at the fixed cut rows, and Pass hands the chunks out last-first to its workers
// — an order no caller may rely on not getting. It simulates the chunk
// geometry and the free visit order of the store's written and paged
// backings without importing the store (which would cycle), so the
// strategy package can pin chunked-vs-contiguous equivalence locally.
type fragView struct {
	t    *Table
	cuts []int // sorted interior cut rows, each in (0, NumRows)
	// fault, when set, is what Pass returns instead of yielding the
	// chunk that holds row faultRow — a paged backing's read failing
	// mid-pass.
	fault    error
	faultRow int
}

func (f fragView) Rows() int  { return f.t.NumRows }
func (f fragView) Lanes() int { return f.t.Lanes }

func (f fragView) Pass(lo, hi, workers int, fn func(int, Chunk) error) error {
	if lo < 0 || hi > f.t.NumRows || lo > hi {
		return fmt.Errorf("fragView: bad range [%d,%d)", lo, hi)
	}
	bounds := []int{lo}
	for _, c := range f.cuts {
		if c > lo && c < hi {
			bounds = append(bounds, c)
		}
	}
	if lo < hi {
		bounds = append(bounds, hi)
	}
	n := len(bounds) - 1
	var next atomic.Int64
	errs := make([]error, max(1, workers))
	ParallelFor(len(errs), len(errs), func(w int) {
		for errs[w] == nil {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			from, to := bounds[n-1-i], bounds[n-i]
			if f.fault != nil && from <= f.faultRow && f.faultRow < to {
				errs[w] = f.fault
				next.Store(int64(n)) // no new chunk after the first error
				return
			}
			errs[w] = fn(w, Chunk{Row: from, Data: f.t.Data[from*f.t.Lanes : to*f.t.Lanes]})
		}
	})
	return errors.Join(errs...)
}

// randomCuts draws a sorted set of interior cut rows, dense enough to
// shatter the table into many small chunks (including single-row ones).
func randomCuts(rng *rand.Rand, rows, n int) []int {
	set := map[int]bool{}
	for len(set) < n {
		set[1+rng.Intn(rows-1)] = true
	}
	cuts := make([]int, 0, n)
	for c := range set {
		cuts = append(cuts, c)
	}
	sort.Ints(cuts)
	return cuts
}

// TestChunkedViewEquivalence pins the TableView redesign's core promise:
// for every executor and PRF, RunRangeInto over a randomly fragmented view
// is bit-identical to the same call over the contiguous in-RAM view — for
// the full table and for sub-ranges whose endpoints fall inside chunks.
func TestChunkedViewEquivalence(t *testing.T) {
	const rows, lanes = 1500, 3
	rng := rand.New(rand.NewSource(808))
	for _, prgCase := range []struct {
		name string
		prg  dpf.PRG
	}{
		{"aes128", dpf.NewAESPRG()},
	} {
		t.Run(prgCase.name, func(t *testing.T) {
			prg := prgCase.prg
			tab := buildTable(t, rows, lanes, 99)
			var keys []*dpf.Key
			for _, idx := range []uint64{0, 7, 733, uint64(rows) - 1} {
				k0, _, err := dpf.Gen(prg, idx, tab.Bits(), 1, rng)
				if err != nil {
					t.Fatal(err)
				}
				keys = append(keys, &k0)
			}
			ranges := [][2]int{{0, rows}, {0, 1}, {257, 1337}, {rows - 5, rows}}
			for _, s := range executors() {
				for _, r := range ranges {
					lo, hi := r[0], r[1]
					var ctr Counters
					want := NewAnswers(len(keys), lanes)
					if err := s.RunRangeInto(prg, keys, tab.View(), lo, hi, &ctr, want); err != nil {
						t.Fatalf("%s contiguous [%d,%d): %v", s.Name(), lo, hi, err)
					}
					for trial := 0; trial < 3; trial++ {
						fv := fragView{t: tab, cuts: randomCuts(rng, rows, 64)}
						got := NewAnswers(len(keys), lanes)
						if err := s.RunRangeInto(prg, keys, fv, lo, hi, &ctr, got); err != nil {
							t.Fatalf("%s fragmented [%d,%d): %v", s.Name(), lo, hi, err)
						}
						for q := range want {
							for l := range want[q] {
								if got[q][l] != want[q][l] {
									t.Fatalf("%s/%s [%d,%d) q=%d lane=%d: fragmented %d != contiguous %d",
										s.Name(), prgCase.name, lo, hi, q, l, got[q][l], want[q][l])
								}
							}
						}
					}
				}
			}
		})
	}
}

// TestViewRangeValidation: the chunk iterator rejects inverted and
// out-of-bounds ranges and accepts empty ones.
func TestViewRangeValidation(t *testing.T) {
	tab := buildTable(t, 16, 2, 3)
	v := tab.View()
	if err := v.Pass(4, 3, 1, func(int, Chunk) error { return nil }); err == nil {
		t.Error("inverted range accepted")
	}
	if err := v.Pass(0, 17, 2, func(int, Chunk) error { return nil }); err == nil {
		t.Error("out-of-bounds range accepted")
	}
	calls := 0
	if err := v.Pass(5, 5, 2, func(int, Chunk) error { calls++; return nil }); err != nil {
		t.Errorf("empty range refused: %v", err)
	}
	if calls != 0 {
		t.Errorf("empty range yielded %d chunks", calls)
	}
}
