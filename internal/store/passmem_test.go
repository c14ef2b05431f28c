package store

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"gpudpf/internal/dpf"
	"gpudpf/internal/strategy"
)

// TestPassMemoryBoundedByBlock: a table pass holds leaf shares for a span
// of rows per worker, not for its whole range. One MemBoundTree pass of a
// 64-key batch over a 2^20 × 64 B table (64 MiB), in RAM and paged through
// a 16 MiB cache, allocates at most workers × 64 × (block rows) × 4 B
// plus the keys' block frontier — measured as TotalAlloc across the pass
// after two GCs have emptied the pools, so every pooled buffer the pass
// needs is counted. A leaf matrix over the range would be 256 MiB.
func TestPassMemoryBoundedByBlock(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates and defeats sync.Pool reuse")
	}
	const (
		rows, lanes, batch = 1 << 20, 16, 64
		blockRows          = 4096 // the rows of 256 KiB of 64 B rows
	)
	tab, pb := pagedFixture(t, rows, lanes, 0) // a 16 MiB cache, 256 KiB pages
	paged, err := NewPaged(pb)
	if err != nil {
		t.Fatal(err)
	}
	sn := paged.Acquire()
	defer sn.Release()

	prg := dpf.NewAESPRG()
	rng := rand.New(rand.NewSource(25))
	keys := make([]*dpf.Key, batch)
	for q := range keys {
		k, _, err := dpf.Gen(prg, uint64(rng.Intn(rows)), tab.Bits(), 1, rng)
		if err != nil {
			t.Fatal(err)
		}
		keys[q] = &k
	}
	workers := min(2, runtime.GOMAXPROCS(0))
	s := strategy.MemBoundTree{K: strategy.DefaultK, Workers: workers}
	frontier := int64(batch/2) * rows / blockRows * 17 // seed and control bit per block, one tile
	limit := int64(workers)*batch*blockRows*4 + frontier
	want := strategy.NewAnswers(batch, lanes)
	for _, vw := range []struct {
		name string
		v    strategy.TableView
	}{{"in-RAM", tab.View()}, {"paged", sn}} {
		got := strategy.NewAnswers(batch, lanes)
		var ctr strategy.Counters
		// A first pass fills the page cache, whose pages are the
		// backing's, not the pass's.
		if err := s.RunRangeInto(prg, keys, vw.v, 0, rows, &ctr, got); err != nil {
			t.Fatalf("%s: %v", vw.name, err)
		}
		for q := range got {
			clear(got[q])
		}
		runtime.GC()
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := s.RunRangeInto(prg, keys, vw.v, 0, rows, &ctr, got)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s: %v", vw.name, err)
		}
		alloc := int64(after.TotalAlloc - before.TotalAlloc)
		t.Logf("%s: %d KiB allocated (limit %d KiB)", vw.name, alloc>>10, limit>>10)
		if alloc > limit {
			t.Errorf("%s: one B=%d pass over %d×%d B rows allocated %d KiB, want <= %d KiB (%d workers × %d × %d rows × 4 B + frontier)",
				vw.name, batch, rows, 4*lanes, alloc>>10, limit>>10, workers, batch, blockRows)
		}
		if vw.name == "in-RAM" {
			want = got
		} else if !reflect.DeepEqual(got, want) {
			t.Errorf("paged answers differ from in-RAM")
		}
	}
}
