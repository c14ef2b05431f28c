package strategy

import (
	"math/rand"
	"reflect"
	"testing"

	"gpudpf/internal/dpf"
)

// This file guards the tiled/batched hot path: every executor × PRF must
// produce output bit-identical to the scalar seed path (per-query
// root-to-leaf evaluation through the scalar PRG Expand, one table pass
// per query), and RunRange over any random partition of [0, NumRows) must
// sum (mod 2^32) to Run's answers.

// scalarReference computes each key's answer the way the seed code did
// before tiling: dpf.EvalAt per row (scalar Step/Expand calls only — no
// batch code path), then a per-query dot product. Mod-2^32 lane sums are
// order-independent, so the tiled path must match this exactly, not
// approximately.
func scalarReference(t *testing.T, prg dpf.PRG, keys []*dpf.Key, tab *Table) [][]uint32 {
	t.Helper()
	ref := make([][]uint32, len(keys))
	for q, k := range keys {
		ans := make([]uint32, tab.Lanes)
		for j := 0; j < tab.NumRows; j++ {
			leaf, err := dpf.EvalAt(prg, k, uint64(j))
			if err != nil {
				t.Fatal(err)
			}
			accumulateRow(ans, leaf[0], tab.Row(j))
		}
		ref[q] = ans
	}
	return ref
}

// TestTiledMatchesScalarAllPRGs: for every executor and every PRF, the
// tiled/batched Run is bit-identical to the scalar reference. The batch of
// 34 keys spans two tiles (32 + 2), exercising both the full-tile and
// ragged-tail paths.
func TestTiledMatchesScalarAllPRGs(t *testing.T) {
	const rows, lanes, batch = 100, 3, 34
	for _, name := range dpf.AllPRGNames() {
		prg, err := dpf.NewPRG(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			tab := buildTable(t, rows, lanes, 21)
			rng := rand.New(rand.NewSource(22))
			keys := make([]*dpf.Key, batch)
			for q := range keys {
				k0, k1, err := dpf.Gen(prg, uint64(rng.Intn(rows)), tab.Bits(), []uint32{1}, rng)
				if err != nil {
					t.Fatal(err)
				}
				if q%2 == 0 {
					keys[q] = &k0
				} else {
					keys[q] = &k1 // party-1 keys exercise the negation path
				}
			}
			want := scalarReference(t, prg, keys, tab)
			for _, s := range executors() {
				var ctr Counters
				got, err := Run(s, prg, keys, tab.View(), &ctr)
				if err != nil {
					t.Fatalf("%s: %v", s.Name(), err)
				}
				for q := range want {
					for l := range want[q] {
						if got[q][l] != want[q][l] {
							t.Fatalf("%s/%s q=%d lane=%d: tiled %d != scalar %d",
								s.Name(), name, q, l, got[q][l], want[q][l])
						}
					}
				}
			}
		})
	}
}

// TestEarlyMatchesFullDepthAllStrategies is the §3.1 acceptance property:
// for every PRF × every executor, a batch of early-terminated (wire v2)
// key pairs and a batch of full-depth (wire v1) pairs for the same indices
// produce bit-identical reconstructed answers — the exact table rows, mod
// 2^32 — and each party's v2 share matches the scalar EvalAt reference for
// its own key. Early termination changes the walk, never the answer.
func TestEarlyMatchesFullDepthAllStrategies(t *testing.T) {
	const rows, lanes, batch = 100, 3, 5
	for _, name := range dpf.AllPRGNames() {
		prg, err := dpf.NewPRG(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			tab := buildTable(t, rows, lanes, 61)
			rng := rand.New(rand.NewSource(62))
			type pair struct{ k0, k1 *dpf.Key }
			var v1, v2 []pair
			var idx []uint64
			for q := 0; q < batch; q++ {
				alpha := uint64(rng.Intn(rows))
				a0, a1, err := dpf.GenEarly(prg, alpha, tab.Bits(), []uint32{1}, 0, rng)
				if err != nil {
					t.Fatal(err)
				}
				b0, b1, err := dpf.GenEarly(prg, alpha, tab.Bits(), []uint32{1}, 2, rng)
				if err != nil {
					t.Fatal(err)
				}
				v1 = append(v1, pair{&a0, &a1})
				v2 = append(v2, pair{&b0, &b1})
				idx = append(idx, alpha)
			}
			split := func(ps []pair) (k0s, k1s []*dpf.Key) {
				for _, p := range ps {
					k0s = append(k0s, p.k0)
					k1s = append(k1s, p.k1)
				}
				return
			}
			v10, v11 := split(v1)
			v20, v21 := split(v2)
			refV2 := scalarReference(t, prg, v20, tab)
			for _, s := range executors() {
				var ctr Counters
				run := func(keys []*dpf.Key) [][]uint32 {
					got, err := Run(s, prg, keys, tab.View(), &ctr)
					if err != nil {
						t.Fatalf("%s: %v", s.Name(), err)
					}
					return got
				}
				a10, a11 := run(v10), run(v11)
				a20, a21 := run(v20), run(v21)
				for q := range idx {
					want := tab.Row(int(idx[q]))
					for l := 0; l < lanes; l++ {
						recV1 := a10[q][l] + a11[q][l]
						recV2 := a20[q][l] + a21[q][l]
						if recV2 != recV1 || recV2 != want[l] {
							t.Fatalf("%s/%s q=%d lane=%d: v2 %d, v1 %d, table %d",
								s.Name(), name, q, l, recV2, recV1, want[l])
						}
						if a20[q][l] != refV2[q][l] {
							t.Fatalf("%s/%s q=%d lane=%d: v2 share %d != scalar reference %d",
								s.Name(), name, q, l, a20[q][l], refV2[q][l])
						}
					}
				}
			}
		})
	}
}

// TestRunRangeRandomPartitions: property test — for every executor,
// summing RunRange partials over ANY partition of [0, NumRows) reproduces
// Run (mod 2^32), not just the fixed cut set range_test.go uses.
func TestRunRangeRandomPartitions(t *testing.T) {
	const rows, lanes = 300, 2
	prg := dpf.NewChaChaPRG()
	tab := buildTable(t, rows, lanes, 31)
	rng := rand.New(rand.NewSource(32))
	keys := make([]*dpf.Key, 5)
	for q := range keys {
		k0, _, err := dpf.Gen(prg, uint64(rng.Intn(rows)), tab.Bits(), []uint32{1}, rng)
		if err != nil {
			t.Fatal(err)
		}
		keys[q] = &k0
	}
	for _, s := range executors() {
		var ctr Counters
		want, err := Run(s, prg, keys, tab.View(), &ctr)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 5; trial++ {
			// Draw a random partition: 0 < c1 < ... < ck < rows.
			cuts := []int{0}
			for c := 1 + rng.Intn(rows-1); c < rows; c += 1 + rng.Intn(rows) {
				cuts = append(cuts, c)
			}
			cuts = append(cuts, rows)
			got := NewAnswers(len(keys), lanes)
			for c := 0; c+1 < len(cuts); c++ {
				part, err := RunRange(s, prg, keys, tab.View(), cuts[c], cuts[c+1], &ctr)
				if err != nil {
					t.Fatalf("%s trial %d range [%d,%d): %v", s.Name(), trial, cuts[c], cuts[c+1], err)
				}
				addInto(got, part)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s trial %d cuts %v: partition sum %v != %v", s.Name(), trial, cuts, got, want)
			}
		}
	}
}

// TestRunRangeIntoAccumulates: RunRangeInto adds into its destination (it
// must not overwrite — the engine merges shard partials in place), and a
// second accumulation doubles the share.
func TestRunRangeIntoAccumulates(t *testing.T) {
	const rows, lanes = 64, 2
	prg := dpf.NewAESPRG()
	tab := buildTable(t, rows, lanes, 41)
	rng := rand.New(rand.NewSource(42))
	k0, _, err := dpf.Gen(prg, 7, tab.Bits(), []uint32{1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	keys := []*dpf.Key{&k0}
	for _, s := range executors() {
		var ctr Counters
		want, err := RunRange(s, prg, keys, tab.View(), 0, rows, &ctr)
		if err != nil {
			t.Fatal(err)
		}
		dst := [][]uint32{make([]uint32, lanes)}
		if err := s.RunRangeInto(prg, keys, tab.View(), 0, rows, &ctr, dst); err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if err := s.RunRangeInto(prg, keys, tab.View(), 0, rows, &ctr, dst); err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		for l := range want[0] {
			if dst[0][l] != 2*want[0][l] {
				t.Fatalf("%s lane %d: double accumulate %d != 2×%d", s.Name(), l, dst[0][l], want[0][l])
			}
		}
	}
}

// TestRunRangeIntoValidatesDst: wrong destination shapes are rejected.
func TestRunRangeIntoValidatesDst(t *testing.T) {
	prg := dpf.NewAESPRG()
	tab := buildTable(t, 16, 2, 51)
	k0, _, err := dpf.Gen(prg, 3, tab.Bits(), []uint32{1}, rand.New(rand.NewSource(52)))
	if err != nil {
		t.Fatal(err)
	}
	keys := []*dpf.Key{&k0}
	s := MemBoundTree{K: 8}
	var ctr Counters
	if err := s.RunRangeInto(prg, keys, tab.View(), 0, 16, &ctr, nil); err == nil {
		t.Error("nil dst accepted")
	}
	if err := s.RunRangeInto(prg, keys, tab.View(), 0, 16, &ctr, [][]uint32{make([]uint32, 1)}); err == nil {
		t.Error("wrong-lane dst accepted")
	}
}
