package store

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"gpudpf/internal/strategy"
)

// TestPagedSteadyStateAllocs pins the page pool: a full chunk sweep of a
// table 4× the cache budget — every page missing, evicting, and reloading
// — must allocate only a small constant once the pool is warm. Entries and
// buffers recycle through the free list and, on little-endian hosts, pages
// read straight into pooled word buffers, so the steady state allocates
// nothing per page (the seed path allocated a raw buffer, a decoded
// buffer, an entry, and a list element per miss — ~80/op on the hot-path
// bench).
func TestPagedSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates and defeats pool reuse")
	}
	const rows, lanes = 4096, 16 // 256 KiB table, 64 KiB cache (16 pages of 4 KiB)
	_, pb := pagedFixture(t, rows, lanes, 4<<10)
	s, err := NewPaged(pb)
	if err != nil {
		t.Fatal(err)
	}
	sn := s.Acquire()
	defer sn.Release()

	sink := uint32(0)
	sweep := func(c strategy.Chunk) error {
		sink += c.Data[0]
		return nil
	}
	for i := 0; i < 3; i++ {
		if err := sn.Chunks(0, rows, sweep); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := sn.Chunks(0, rows, sweep); err != nil {
			t.Fatal(err)
		}
	})
	// Budget 3: Chunks' callback adapter, and stray transients should a
	// pool drop its pass state. Nothing may scale with the page count of
	// the sweep.
	if allocs > 3 {
		t.Errorf("paged full sweep allocates %.1f/op at steady state, want ≤ 3 (pooled pages)", allocs)
	}
	_ = sink
}

// TestPagedFailedLoadKeepsPool: a page whose file read fails must hand its
// pooled buffer back. The table file is cut short after OpenPaged, so every
// miss on the lost pages fails — with ErrPageRead beside the file's own
// error — and a hundred of them in a row leave the free list as long as it
// was (before the fix each one dropped a buffer, and the next miss
// allocated a fresh page).
func TestPagedFailedLoadKeepsPool(t *testing.T) {
	const rows, lanes = 1024, 4 // 16 pages of 64 rows, 4 of them cached
	_, pb := pagedFixture(t, rows, lanes, 1<<10)
	s, err := NewPaged(pb)
	if err != nil {
		t.Fatal(err)
	}
	sn := s.Acquire()
	defer sn.Release()
	// One sweep through a cache a quarter the table's size leaves the
	// buffer the scan streamed its last pages through in the free list and
	// the table's head (pages 0–3) resident.
	if err := sn.Chunks(0, rows, func(strategy.Chunk) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(pb.f.Name(), pagedHeaderBytes+100); err != nil {
		t.Fatal(err)
	}
	freeLen := func() int {
		pb.mu.Lock()
		defer pb.mu.Unlock()
		return len(pb.free)
	}
	before := freeLen()
	if before == 0 {
		t.Fatal("sweep left no pooled page to lose")
	}
	for i := 0; i < 100; i++ {
		_, err := sn.Row(rows/2 + i%(rows/2)) // pages 8–15: none resident
		if !errors.Is(err, ErrPageRead) || !(errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)) {
			t.Fatalf("load %d of a truncated page: error %v, want ErrPageRead wrapping the short read", i, err)
		}
		if got := freeLen(); got != before {
			t.Fatalf("after %d failing loads the free list holds %d pages, had %d", i+1, got, before)
		}
	}
}

// TestPagedRowCopiesSurviveRecycling: Row hands out copies, so a slice
// stays valid even after the page it came from has been evicted, its
// buffer recycled, and the buffer reloaded with different rows.
func TestPagedRowCopiesSurviveRecycling(t *testing.T) {
	const rows, lanes = 1024, 4
	tab, pb := pagedFixture(t, rows, lanes, 1<<10)
	s, err := NewPaged(pb)
	if err != nil {
		t.Fatal(err)
	}
	sn := s.Acquire()
	defer sn.Release()

	r7, err := sn.Row(7)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]uint32(nil), r7...)
	// Churn the whole cache several times over.
	for i := 0; i < 3; i++ {
		if err := sn.Chunks(0, rows, func(strategy.Chunk) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	for l := range want {
		if r7[l] != want[l] || r7[l] != tab.Data[7*lanes+l] {
			t.Fatalf("row 7 lane %d changed under churn: %d, want %d", l, r7[l], tab.Data[7*lanes+l])
		}
	}
}

// TestWriteTableFileRows: the streaming row-wise writer produces a file
// the paged loader serves bit-identically to one written from a
// materialized table — a shard node can generate its slice of a huge table
// without ever holding rows×lanes words.
func TestWriteTableFileRows(t *testing.T) {
	const rows, lanes = 300, 6
	tab, err := strategy.NewTable(rows, lanes)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tab.Data {
		tab.Data[i] = uint32(i*2654435761 + 17)
	}
	dir := t.TempDir()
	whole := filepath.Join(dir, "whole.gpdf")
	if err := WriteTableFile(whole, tab); err != nil {
		t.Fatal(err)
	}
	streamed := filepath.Join(dir, "streamed.gpdf")
	err = WriteTableFileRows(streamed, rows, lanes, func(i int, dst []uint32) {
		copy(dst, tab.Row(i))
	})
	if err != nil {
		t.Fatal(err)
	}
	pb, err := OpenPaged(streamed, PagedConfig{PageBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer pb.Close()
	s, err := NewPaged(pb)
	if err != nil {
		t.Fatal(err)
	}
	sn := s.Acquire()
	defer sn.Release()
	got := viewWords(t, sn)
	for i := range got {
		if got[i] != tab.Data[i] {
			t.Fatalf("streamed file word %d: %d, want %d", i, got[i], tab.Data[i])
		}
	}
	if _, err := OpenPaged(whole, PagedConfig{}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkPagedPass times one full pass on the caller's goroutine alone
// over paged-update's shape: 2^14 rows of 4 KiB (64 MiB) in 256 KiB pages
// through a 16 MiB cache, the file in the OS page cache. Run it under
// -cpu 1 to see what a pass costs with no core to overlap reads on.
func BenchmarkPagedPass(b *testing.B) {
	const rows, lanes = 1 << 14, 1024
	path := filepath.Join(b.TempDir(), "table.gpdf")
	err := WriteTableFileRows(path, rows, lanes, func(i int, dst []uint32) {
		for l := range dst {
			dst[l] = uint32(i*lanes + l)
		}
	})
	if err != nil {
		b.Fatal(err)
	}
	pb, err := OpenPaged(path, PagedConfig{CacheBytes: 16 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer pb.Close()
	s, err := NewPaged(pb)
	if err != nil {
		b.Fatal(err)
	}
	sn := s.Acquire()
	defer sn.Release()
	sink := uint32(0)
	sweep := func(c strategy.Chunk) error {
		sink += c.Data[0]
		return nil
	}
	b.SetBytes(rows * lanes * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sn.Chunks(0, rows, sweep); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(pb.Loads())/float64(b.N), "loads/op")
	_ = sink
}
