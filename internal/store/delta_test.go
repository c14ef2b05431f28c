package store

import (
	"errors"
	"runtime"
	"testing"

	"gpudpf/internal/strategy"
)

// viewWords materializes a snapshot's full word buffer through the chunk
// iterator — the reference read for every equivalence check here.
func viewWords(t testing.TB, sn *Snapshot) []uint32 {
	t.Helper()
	out := make([]uint32, sn.Rows()*sn.Lanes())
	err := sn.Chunks(0, sn.Rows(), func(c strategy.Chunk) error {
		copy(out[c.Row*sn.Lanes():], c.Data)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// applyWords computes the expected table content after overwriting rows.
func applyWords(base []uint32, lanes int, writes []RowWrite) []uint32 {
	out := append([]uint32(nil), base...)
	for _, w := range writes {
		copy(out[int(w.Row)*lanes:(int(w.Row)+1)*lanes], w.Vals)
	}
	return out
}

// TestOverlayReads: a k-row Apply copies only the pages it touches into
// fresh versions (chain depth 1), and every read surface — Chunks, Row,
// CopyWords — reads the written pages and the untouched windows of the
// adopted array alike, while the raw contiguous accessor refuses with
// ErrNotContiguous.
func TestOverlayReads(t *testing.T) {
	const rows, lanes, pageRows = 64, 3, 4
	s := testStoreRAM(t, rows, lanes, pageRows)
	base := viewWords(t, func() *Snapshot { sn := s.Acquire(); defer sn.Release(); return sn }())

	writes := []RowWrite{
		{Row: 0, Vals: row(100, 101, 102)},
		{Row: 5, Vals: row(200, 201, 202)},
		{Row: 6, Vals: row(300, 301, 302)}, // same page as 5: one version
		{Row: 63, Vals: row(400, 401, 402)},
	}
	if _, err := s.Apply(writes); err != nil {
		t.Fatal(err)
	}
	if d := s.ChainDepth(); d != 1 {
		t.Fatalf("chain depth %d after one apply, want 1", d)
	}
	sn := s.Acquire()
	defer sn.Release()
	// Pages 0, 1 and 15 are written versions; every other page maps its
	// own window of the adopted array.
	for p, sl := range sn.t.slot {
		if written := p == 0 || p == 1 || p == rows/pageRows-1; written == (int(sl) == p) {
			t.Fatalf("page %d maps slot %d (written %v)", p, sl, written)
		}
	}
	want := applyWords(base, lanes, writes)

	// Chunks over the full range read written pages and windows.
	got := viewWords(t, sn)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("word %d: chunked read %d, want %d", i, got[i], want[i])
		}
	}
	// Chunk geometry: runs must be ascending, gap-free, and within range.
	next := 10
	err := sn.Chunks(10, 60, func(c strategy.Chunk) error {
		if c.Row != next {
			t.Fatalf("chunk starts at row %d, want %d", c.Row, next)
		}
		if len(c.Data)%lanes != 0 || len(c.Data) == 0 {
			t.Fatalf("chunk at row %d has %d words", c.Row, len(c.Data))
		}
		next = c.Row + len(c.Data)/lanes
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if next != 60 {
		t.Fatalf("chunks covered up to row %d, want 60", next)
	}
	// Row reads hit the written pages and the windows.
	if got := rowOf(sn, 5); got[0] != 200 {
		t.Fatalf("written row 5 = %v", got)
	}
	if got := rowOf(sn, 4); got[0] != base[4*lanes] {
		t.Fatalf("unwritten row 4 of a written page = %v, want %d", got, base[4*lanes])
	}
	if got := rowOf(sn, 9); got[0] != base[9*lanes] {
		t.Fatalf("window row 9 = %v, want %d", got, base[9*lanes])
	}
	// CopyWords assembles an unaligned window across page boundaries.
	win := make([]uint32, 6*lanes+1)
	if err := sn.CopyWords(3*lanes+1, win); err != nil {
		t.Fatal(err)
	}
	for i := range win {
		if win[i] != want[3*lanes+1+i] {
			t.Fatalf("CopyWords word %d: %d, want %d", i, win[i], want[3*lanes+1+i])
		}
	}
	// The contiguous accessor refuses on a written epoch.
	if _, err := sn.RowRange(0, rows); !errors.Is(err, ErrNotContiguous) {
		t.Fatalf("RowRange on a written epoch: %v, want ErrNotContiguous", err)
	}
}

// TestAbortAcrossCompaction: rolling back a committed epoch whose pages
// took slots that retired epochs freed reinstates its predecessor
// bit-for-bit, and writes after the rollback that reuse the rolled-back
// epoch's slots leave the predecessor intact — rollback is pointer
// surgery on refcounted versions, whatever slots they sit in.
func TestAbortAcrossCompaction(t *testing.T) {
	const rows, lanes, pageRows = 16, 2, 2
	s := testStoreRAM(t, rows, lanes, pageRows)
	r := s.cur.Load().t.root.(*ramRoot)
	// Epochs 1–4 rewrite pages 1 and 4, so retired epochs free slots —
	// windows of the adopted array among them — for the next batch.
	for i := uint32(0); i < 4; i++ {
		if _, err := s.Apply([]RowWrite{{Row: 3, Vals: row(70+i, 71+i)}, {Row: 8, Vals: row(80+i, 81+i)}}); err != nil {
			t.Fatal(err)
		}
	}
	pinned := s.Acquire()
	defer pinned.Release()
	pre := viewWords(t, pinned)
	slots := len(*r.bufs.Load())

	// Epoch 5 via the two-phase path takes freed slots, not new ones.
	if err := s.Prepare(5, []RowWrite{{Row: 2, Vals: row(91, 92)}, {Row: 9, Vals: row(93, 94)}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(5); err != nil {
		t.Fatal(err)
	}
	if n := len(*r.bufs.Load()); n != slots {
		t.Fatalf("committed epoch grew the root to %d slots from %d; freed slots not reused", n, slots)
	}
	committed := s.Acquire()
	if got := rowOf(committed, 2); got[0] != 91 {
		t.Fatalf("committed row 2 = %v, want 91", got)
	}
	committed.Release()
	// Roll epoch 5 back: epoch 4's page table must be reinstated intact.
	if err := s.Abort(5); err != nil {
		t.Fatal(err)
	}
	if err := checkVersions(s, []pin{{sn: pinned, want: pre}}); err != nil {
		t.Fatal(err)
	}
	sn := s.Acquire()
	if sn.Epoch() != 4 {
		t.Fatalf("rolled back to epoch %d, want 4", sn.Epoch())
	}
	got := viewWords(t, sn)
	sn.Release()
	for i := range pre {
		if got[i] != pre[i] {
			t.Fatalf("word %d after rollback: %d, want %d", i, got[i], pre[i])
		}
	}
	// Epoch 5 is burned; the next write reuses its freed slots and leaves
	// the reinstated epoch as it was.
	next := []RowWrite{{Row: 2, Vals: row(101, 102)}, {Row: 9, Vals: row(103, 104)}}
	if epoch, err := s.Apply(next); err != nil || epoch != 6 {
		t.Fatalf("post-rollback apply: epoch %d err %v, want 6", epoch, err)
	}
	if n := len(*r.bufs.Load()); n != slots {
		t.Fatalf("post-rollback apply grew the root to %d slots from %d", n, slots)
	}
	got = viewWords(t, pinned)
	for i := range pre {
		if got[i] != pre[i] {
			t.Fatalf("word %d of the reinstated epoch after reuse: %d, want %d", i, got[i], pre[i])
		}
	}
	sn = s.Acquire()
	defer sn.Release()
	want := applyWords(pre, lanes, next)
	got = viewWords(t, sn)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("word %d of epoch 6: %d, want %d", i, got[i], want[i])
		}
	}
}

// TestApplyAllocBytes is the write-amplification contract: a k-row Apply
// on a 2^16-row table must allocate on the order of the page table and
// the batch, not the pages it copies — written versions land in slots
// that dead epochs freed, so once the free list is warm no page buffer is
// allocated.
func TestApplyAllocBytes(t *testing.T) {
	const rows, lanes, k = 1 << 16, 16, 16
	s := testStore(t, rows, lanes) // 4 MiB table
	targets := make([]uint64, k)
	for i := range targets {
		targets[i] = uint64(i * (rows / k))
	}
	writes := uniformWrites(lanes, 7, targets...)
	// Warm to steady state: the epochs an Apply retires hand their slots
	// to the next one.
	for i := 0; i < 10; i++ {
		if _, err := s.Apply(writes); err != nil {
			t.Fatal(err)
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	const iters = 10
	for i := 0; i < iters; i++ {
		if _, err := s.Apply(writes); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&m1)
	perOp := (m1.TotalAlloc - m0.TotalAlloc) / iters
	// The batch is k·lanes·4 = 1 KiB plus book-keeping; each of the 16
	// pages it copies is 256 KiB, the table 4 MiB. Allow generous slack for
	// the runtime while staying far below one fresh page per Apply.
	const bound = 64 << 10
	if perOp > bound {
		t.Fatalf("steady-state %d-row Apply allocates %d B/op (table is %d B); want ≤ %d",
			k, perOp, rows*lanes*4, bound)
	}
}

// TestShapeOverflowRejected: rows×lanes products that overflow are refused
// at construction — the guard that keeps RowRange/Chunks index arithmetic
// safe everywhere downstream.
func TestShapeOverflowRejected(t *testing.T) {
	if _, err := checkShape(1<<40, 1<<40); err == nil {
		t.Fatal("overflowing shape accepted")
	}
	if _, err := checkShape(0, 4); err == nil {
		t.Fatal("zero rows accepted")
	}
	if _, err := checkShape(1<<20, 16); err != nil {
		t.Fatalf("sane shape refused: %v", err)
	}
}
