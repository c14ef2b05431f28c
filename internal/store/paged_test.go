package store

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"gpudpf/internal/dpf"
	"gpudpf/internal/strategy"
)

// pagedFixture writes a deterministic table to disk and opens it with the
// cache budget set to 1/4 of the table's bytes — the out-of-core shape the
// acceptance check requires (the table is 4× larger than the cache).
func pagedFixture(t testing.TB, rows, lanes, pageBytes int) (*strategy.Table, *PagedBacking) {
	t.Helper()
	tab, err := strategy.NewTable(rows, lanes)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(rows*31 + lanes)))
	for i := range tab.Data {
		tab.Data[i] = rng.Uint32()
	}
	path := filepath.Join(t.TempDir(), "table.gpdf")
	if err := WriteTableFile(path, tab); err != nil {
		t.Fatal(err)
	}
	pb, err := OpenPaged(path, PagedConfig{PageBytes: pageBytes, CacheBytes: int64(rows*lanes) * 4 / 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pb.Close() })
	return tab, pb
}

// TestPagedEquivalenceAcrossStrategies is the out-of-core acceptance
// check: a paged store whose cache budget is a quarter of the table must
// serve answers bit-identical to the in-RAM path, for every executor
// configuration, while actually evicting (the sweep touches every page with
// a cache that cannot hold them).
func TestPagedEquivalenceAcrossStrategies(t *testing.T) {
	const rows, lanes = 4096, 16 // 256 KiB table, 64 KiB cache
	tab, pb := pagedFixture(t, rows, lanes, 8<<10)
	s, err := NewPaged(pb)
	if err != nil {
		t.Fatal(err)
	}
	sn := s.Acquire()
	defer sn.Release()

	strategies := []strategy.MemBoundTree{
		{K: 8},
		{K: 128},
	}
	prg := dpf.NewAESPRG()
	rng := rand.New(rand.NewSource(4242))
	var keys []*dpf.Key
	for _, idx := range []uint64{1, 512, 4095} {
		k0, _, err := dpf.Gen(prg, idx, tab.Bits(), 1, rng)
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, &k0)
	}
	for _, st := range strategies {
		var ctr strategy.Counters
		want := strategy.NewAnswers(len(keys), lanes)
		if err := st.RunRangeInto(prg, keys, tab.View(), 0, rows, &ctr, want); err != nil {
			t.Fatalf("%s/%s in-RAM: %v", st.Name(), prg.Name(), err)
		}
		got := strategy.NewAnswers(len(keys), lanes)
		if err := st.RunRangeInto(prg, keys, sn, 0, rows, &ctr, got); err != nil {
			t.Fatalf("%s/%s paged: %v", st.Name(), prg.Name(), err)
		}
		for q := range want {
			for l := range want[q] {
				if got[q][l] != want[q][l] {
					t.Fatalf("%s/%s q=%d lane=%d: paged %d != in-RAM %d",
						st.Name(), prg.Name(), q, l, got[q][l], want[q][l])
				}
			}
		}
	}
	// The budget is a quarter of the table: the sweeps above must have
	// loaded far more pages than fit, proving eviction + reload really ran.
	if loads, pages := pb.Loads(), (rows*lanes*4)/(8<<10); loads <= int64(pages) {
		t.Fatalf("only %d page loads over repeated full sweeps of %d pages; cache never evicted", loads, pages)
	}
}

// TestPagedDeltaEpochs: updates over a paged root copy each page they
// touch into a slot of the scratch file, never into the table file (whose
// bytes stay as written) and never into RAM; reads see every epoch's
// writes; and the slots of retired epochs are reused, so seven batches of
// two pages each leave the scratch file at seven slots, not fourteen.
func TestPagedDeltaEpochs(t *testing.T) {
	const rows, lanes = 1024, 4
	tab, pb := pagedFixture(t, rows, lanes, 4<<10) // 256-row pages
	onDisk, err := os.ReadFile(pb.f.Name())
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewPaged(pb)
	if err != nil {
		t.Fatal(err)
	}
	if d := s.ChainDepth(); d != 0 {
		t.Fatalf("unwritten paged table at depth %d, want 0", d)
	}
	expect := append([]uint32(nil), tab.Data...)
	for i := 0; i < 7; i++ {
		writes := []RowWrite{
			{Row: uint64(i * 100), Vals: row(uint32(i), uint32(i), uint32(i), uint32(i))},
			{Row: uint64(i*100 + 256), Vals: row(9, 9, 9, 9)},
		}
		if _, err := s.Apply(writes); err != nil {
			t.Fatal(err)
		}
		expect = applyWords(expect, lanes, writes)
		if d := s.ChainDepth(); d != 1 {
			t.Fatalf("apply %d: chain depth %d, want 1 once a page is written", i, d)
		}
		sn := s.Acquire()
		got := viewWords(t, sn)
		for w := range expect {
			if got[w] != expect[w] {
				t.Fatalf("apply %d word %d: %d, want %d", i, w, got[w], expect[w])
			}
		}
		// The contiguous accessor must keep refusing: nothing materialized.
		if _, derr := sn.RowRange(0, sn.Rows()); !errors.Is(derr, ErrNotContiguous) {
			t.Fatalf("paged epoch became contiguous: %v", derr)
		}
		sn.Release()
	}
	sn := s.Acquire()
	defer sn.Release()
	if got, err := sn.Row(856); err != nil || got[0] != 9 {
		t.Fatalf("written row 856 = %v, %v", got, err)
	}
	if after, err := os.ReadFile(pb.f.Name()); err != nil || string(after) != string(onDisk) {
		t.Fatalf("the table file changed under writes (%v)", err)
	}
	// The last batch was written while the epochs before it mapped five
	// written versions (page 0's from the third batch among them): five
	// plus its two is the scratch file's high-water mark.
	if n := len(pb.refs) - pb.nPages; n != 7 {
		t.Fatalf("seven two-page batches grew the scratch file to %d slots, want 7", n)
	}
	if st, err := pb.scratch.Stat(); err != nil || st.Size() != 7*4<<10 {
		t.Fatalf("scratch file: %v, %v", st, err)
	}
}

// TestPagedSnapshotAccessors: the contiguous accessor fails with the
// named error on a paged epoch-0 snapshot, while CopyWords and Row serve
// the same bytes the file holds.
func TestPagedSnapshotAccessors(t *testing.T) {
	const rows, lanes = 256, 4
	tab, pb := pagedFixture(t, rows, lanes, 1<<10)
	s, err := NewPaged(pb)
	if err != nil {
		t.Fatal(err)
	}
	sn := s.Acquire()
	defer sn.Release()
	if _, err := sn.RowRange(10, 20); !errors.Is(err, ErrNotContiguous) {
		t.Fatalf("RowRange: %v, want ErrNotContiguous", err)
	}
	win := make([]uint32, 3*lanes)
	if err := sn.CopyWords(37*lanes, win); err != nil {
		t.Fatal(err)
	}
	for i := range win {
		if win[i] != tab.Data[37*lanes+i] {
			t.Fatalf("CopyWords word %d: %d, want %d", i, win[i], tab.Data[37*lanes+i])
		}
	}
	r, err := sn.Row(199)
	if err != nil {
		t.Fatal(err)
	}
	for l := range r {
		if r[l] != tab.Data[199*lanes+l] {
			t.Fatalf("row 199 lane %d: %d, want %d", l, r[l], tab.Data[199*lanes+l])
		}
	}
}

// TestPagedFileValidation: the loader refuses wrong magic, truncation, and
// shape/size mismatches by name instead of serving garbage.
func TestPagedFileValidation(t *testing.T) {
	dir := t.TempDir()
	tab, err := strategy.NewTable(16, 2)
	if err != nil {
		t.Fatal(err)
	}
	good := filepath.Join(dir, "good.gpdf")
	if err := WriteTableFile(good, tab); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}

	bad := filepath.Join(dir, "magic.gpdf")
	mut := append([]byte(nil), raw...)
	mut[0] ^= 0xff
	if err := os.WriteFile(bad, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenPaged(bad, PagedConfig{}); err == nil {
		t.Fatal("wrong magic accepted")
	}

	short := filepath.Join(dir, "short.gpdf")
	if err := os.WriteFile(short, raw[:len(raw)-4], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenPaged(short, PagedConfig{}); err == nil {
		t.Fatal("truncated file accepted")
	}

	pb, err := OpenPaged(good, PagedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer pb.Close()
	if pb.Rows() != 16 || pb.Lanes() != 2 {
		t.Fatalf("shape %d×%d from file", pb.Rows(), pb.Lanes())
	}
}

// TestPagedTinyCache: a budget far below one sweep still serves correct
// bytes (the cache floor keeps one page resident so iteration progresses).
func TestPagedTinyCache(t *testing.T) {
	const rows, lanes = 512, 4
	tab, err := strategy.NewTable(rows, lanes)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tab.Data {
		tab.Data[i] = uint32(i * 3)
	}
	path := filepath.Join(t.TempDir(), "t.gpdf")
	if err := WriteTableFile(path, tab); err != nil {
		t.Fatal(err)
	}
	pb, err := OpenPaged(path, PagedConfig{PageBytes: 1 << 10, CacheBytes: 1})
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
			t.Fatalf("word %d: %d, want %d", i, got[i], tab.Data[i])
		}
	}
}

// TestPagedWriteKeepsResidentPage: a one-row write to a resident page
// copies the cached version instead of reading the table file — which is
// cut to its header first, so any read would fail — and the written page
// stays cached under its new slot: the next pass at the new epoch reads
// nothing and counts every page, the written one included, as a hit.
func TestPagedWriteKeepsResidentPage(t *testing.T) {
	const rows, lanes = 256, 4
	tab, err := strategy.NewTable(rows, lanes)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tab.Data {
		tab.Data[i] = uint32(i * 7)
	}
	path := filepath.Join(t.TempDir(), "t.gpdf")
	if err := WriteTableFile(path, tab); err != nil {
		t.Fatal(err)
	}
	pb, err := OpenPaged(path, PagedConfig{PageBytes: 1 << 10, CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer pb.Close()
	s, err := NewPaged(pb)
	if err != nil {
		t.Fatal(err)
	}
	sn := s.Acquire()
	viewWords(t, sn) // every page resident
	sn.Release()
	if err := os.Truncate(path, pagedHeaderBytes); err != nil {
		t.Fatal(err)
	}
	loads, hits := pb.Loads(), pb.Hits()
	const row = 100
	if _, err := s.Apply([]RowWrite{{Row: row, Vals: []uint32{1, 2, 3, 4}}}); err != nil {
		t.Fatalf("one-row write to a resident page: %v", err)
	}
	copy(tab.Row(row), []uint32{1, 2, 3, 4})
	sn = s.Acquire()
	defer sn.Release()
	got := viewWords(t, sn)
	for i := range got {
		if got[i] != tab.Data[i] {
			t.Fatalf("word %d after the write: %d, want %d", i, got[i], tab.Data[i])
		}
	}
	if n := pb.Loads() - loads; n != 0 {
		t.Errorf("write and pass read %d pages from a file, want 0", n)
	}
	if n, want := pb.Hits()-hits, int64(pb.nPages); n != want {
		t.Errorf("pass at the new epoch counted %d hits, want all %d pages", n, want)
	}
}
