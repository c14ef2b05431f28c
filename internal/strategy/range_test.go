package strategy

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"gpudpf/internal/dpf"
)

// TestRunRangePartition: for every executor, summing the partial shares of
// ranges that partition [0, NumRows) reproduces Run's answers exactly —
// the linearity engine.Cluster's sharding relies on.
func TestRunRangePartition(t *testing.T) {
	const rows, lanes = 300, 3 // non-power-of-two rows exercise the domain tail
	prg := dpf.NewAESPRG()
	tab := buildTable(t, rows, lanes, 7)
	rng := rand.New(rand.NewSource(7))
	var keys []*dpf.Key
	for _, idx := range []uint64{0, 13, 255, 299} {
		k0, _, err := dpf.Gen(prg, idx, tab.Bits(), []uint32{1}, rng)
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, &k0)
	}
	// Uneven cuts, including a range that ends exactly at NumRows (inside
	// the padded domain tail).
	cuts := []int{0, 1, 97, 256, rows}

	for _, s := range executors() {
		t.Run(fmt.Sprintf("K=%d", s.K), func(t *testing.T) {
			var ctr Counters
			want, err := Run(s, prg, keys, tab.View(), &ctr)
			if err != nil {
				t.Fatal(err)
			}
			got := NewAnswers(len(keys), lanes)
			for c := 0; c+1 < len(cuts); c++ {
				part, err := RunRange(s, prg, keys, tab.View(), cuts[c], cuts[c+1], &ctr)
				if err != nil {
					t.Fatalf("range [%d,%d): %v", cuts[c], cuts[c+1], err)
				}
				addInto(got, part)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("partition sum %v != full run %v", got, want)
			}
		})
	}
}

// TestMemBoundRangeTrim: the memory-bounded walk trims every K-group to
// the nodes that meet the shard's range, so a table split over N shards
// costs each shard about 1/N of the tree even when K is as wide as the
// shard's whole frontier (2^10 rows at K=128 used to expand the full tree
// on both of 2 shards). For shards in {2,3,5,8} and 2^8..2^14 rows the
// shard partials sum bit-identically to the full run, and each shard
// computes at most full/N PRF blocks plus three edge nodes per level —
// far inside the K-group-per-level allowance (full/N + depth·2K) that
// whole-group pruning could promise.
func TestMemBoundRangeTrim(t *testing.T) {
	prg := dpf.NewAESPRG()
	m := MemBoundTree{}
	rng := rand.New(rand.NewSource(16))
	for bits := 8; bits <= 14; bits++ {
		rows, lanes := 1<<bits, 2
		tab := buildTable(t, rows, lanes, int64(bits))
		keys := make([]*dpf.Key, 3)
		for q := range keys {
			k0, _, err := dpf.Gen(prg, uint64(rng.Intn(rows)), bits, []uint32{1}, rng)
			if err != nil {
				t.Fatal(err)
			}
			keys[q] = &k0
		}
		var ctr Counters
		want, err := Run(m, prg, keys, tab.View(), &ctr)
		if err != nil {
			t.Fatal(err)
		}
		full := ctr.Snapshot().PRFBlocks
		for _, shards := range []int{2, 3, 5, 8} {
			got := NewAnswers(len(keys), lanes)
			limit := full/int64(shards) + int64(len(keys)*keys[0].TreeDepth())*3*dpf.BlocksPerExpand
			for sh := 0; sh < shards; sh++ {
				lo, hi := sh*rows/shards, (sh+1)*rows/shards
				var shardCtr Counters
				if err := m.RunRangeInto(prg, keys, tab.View(), lo, hi, &shardCtr, got); err != nil {
					t.Fatal(err)
				}
				if b := shardCtr.Snapshot().PRFBlocks; b > limit {
					t.Errorf("bits=%d shard %d/%d [%d,%d): %d PRF blocks, want <= %d (full run %d)",
						bits, sh, shards, lo, hi, b, limit, full)
				}
			}
			for q := range want {
				for l := range want[q] {
					if got[q][l] != want[q][l] {
						t.Fatalf("bits=%d shards=%d key %d lane %d: partials sum to %d, full run %d",
							bits, shards, q, l, got[q][l], want[q][l])
					}
				}
			}
		}
	}
}

// TestHostCountersCountStreamedRows: the counters record host work, not a
// modeled device. A whole-range pass of a 33-key batch (two tiles) over a
// 3000-row table counts exactly the PRF blocks the walk computes — it stops
// at row 3000, not at the padded 4096-row domain — and two tile passes over
// the 3000 real rows; a partial range counts two passes over its own rows.
func TestHostCountersCountStreamedRows(t *testing.T) {
	const rows, lanes, batch = 3000, 3, 33
	prg := dpf.NewAESPRG()
	tab := buildTable(t, rows, lanes, 33)
	keys, _, _ := genBatch(t, prg, tab, batch, 33)
	early := keys[0].Early
	for _, s := range executors() {
		for _, r := range [][2]int{{0, rows}, {700, 2100}} {
			var ctr Counters
			if _, err := RunRange(s, prg, keys, tab.View(), r[0], r[1], &ctr); err != nil {
				t.Fatal(err)
			}
			want := Stats{
				PRFBlocks: batch * walkRangeBlocks(tab.Bits(), early, uint64(r[0]), uint64(r[1])),
				ReadBytes: 2 * int64(r[1]-r[0]) * lanes * 4,
			}
			if got := ctr.Snapshot(); got != want {
				t.Errorf("%s K=%d rows [%d,%d): counted %+v, want %+v", s.Name(), s.K, r[0], r[1], got, want)
			}
		}
	}
}

// TestRunRangeValidation: bad ranges are rejected.
func TestRunRangeValidation(t *testing.T) {
	prg := dpf.NewAESPRG()
	tab, err := NewTable(16, 1)
	if err != nil {
		t.Fatal(err)
	}
	k0, _, err := dpf.Gen(prg, 3, tab.Bits(), []uint32{1}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	keys := []*dpf.Key{&k0}
	s := MemBoundTree{K: 8}
	var ctr Counters
	for _, r := range [][2]int{{-1, 4}, {4, 4}, {8, 4}, {0, 17}} {
		if _, err := RunRange(s, prg, keys, tab.View(), r[0], r[1], &ctr); err == nil {
			t.Errorf("range [%d,%d) accepted", r[0], r[1])
		}
	}
}
