package store

import (
	"math/rand/v2"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"testing"

	"gpudpf/internal/strategy"
)

// liveHeap collects garbage and returns the live heap's bytes.
func liveHeap() int {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return int(s[0].Value.Uint64())
}

// TestPageTableMemoryBound is the store's memory bound. N batches of 16
// seeded random rows and then one Adopt of the whole table go into an
// in-RAM store and into a paged one (256 KiB pages through a cache a
// quarter of the table). After the batches and again after the Adopt, with
// a full pass run, the live heap above what it was before the store was
// built must stay within what the store is allowed to hold — the table
// (in RAM) or the cache budget (paged) — plus the pages three retained
// epochs wrote (pages per batch × 3 × page bytes) and a fixed slack. The
// bound holds at two table sizes 4× apart and two values of N.
func TestPageTableMemoryBound(t *testing.T) {
	const lanes, batchRows, retained, slack = 256, 16, 3, 2 << 20
	for _, tableBytes := range []int{8 << 20, 32 << 20} {
		for _, n := range []int{4, 32} {
			for _, paged := range []bool{false, true} {
				rows := tableBytes / (4 * lanes)
				pageRows := DefaultPageBytes / (4 * lanes)
				rng := rand.New(rand.NewPCG(uint64(tableBytes), uint64(n)))
				fill := func(r int, dst []uint32) {
					for l := range dst {
						dst[l] = uint32(r*lanes + l)
					}
				}
				base := liveHeap()
				var s *Store
				var pb *PagedBacking
				var err error
				allowed := tableBytes
				if paged {
					path := filepath.Join(t.TempDir(), "table.gpdf")
					if err := WriteTableFileRows(path, rows, lanes, fill); err != nil {
						t.Fatal(err)
					}
					allowed = tableBytes / 4
					if pb, err = OpenPaged(path, PagedConfig{CacheBytes: int64(allowed)}); err != nil {
						t.Fatal(err)
					}
					s, err = NewPaged(pb)
				} else {
					tab, terr := strategy.NewTable(rows, lanes)
					if terr != nil {
						t.Fatal(terr)
					}
					for r := 0; r < rows; r++ {
						fill(r, tab.Row(r))
					}
					s, err = New(tab)
				}
				if err != nil {
					t.Fatal(err)
				}
				pagesPerBatch := 0
				check := func(after string) {
					t.Helper()
					sn := s.Acquire()
					if err := sn.Chunks(0, rows, func(strategy.Chunk) error { return nil }); err != nil {
						t.Fatal(err)
					}
					sn.Release()
					bound := allowed + pagesPerBatch*retained*DefaultPageBytes + slack
					if got := liveHeap() - base; got > bound {
						t.Errorf("%d MiB table, paged %v, N=%d, after %s: live heap grew %.1f MiB, bound %.1f MiB",
							tableBytes>>20, paged, n, after, float64(got)/(1<<20), float64(bound)/(1<<20))
					}
					runtime.KeepAlive(s) // measured with the store alive
				}
				for i := 0; i < n; i++ {
					writes := make([]RowWrite, batchRows)
					touched := map[int]bool{}
					for j := range writes {
						r := rng.IntN(rows)
						vals := make([]uint32, lanes)
						fill(r+i+1, vals)
						writes[j] = RowWrite{Row: uint64(r), Vals: vals}
						touched[r/pageRows] = true
					}
					pagesPerBatch = max(pagesPerBatch, len(touched))
					if _, err := s.Apply(writes); err != nil {
						t.Fatal(err)
					}
				}
				check("the batches")
				vals := make([]uint32, rows*lanes)
				for r := 0; r < rows; r++ {
					fill(r+n+1, vals[r*lanes:(r+1)*lanes])
				}
				if err := s.Adopt(s.Epoch()+1, 0, 0, rows, vals); err != nil {
					t.Fatal(err)
				}
				vals = nil
				check("a full-range Adopt")
				if pb != nil {
					pb.Close()
				}
			}
		}
	}
}
