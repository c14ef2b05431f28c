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

// TestOverlayReads: a k-row Apply lands as an overlay (depth 1), and every
// read surface — Chunks, Row, CopyWords — merges the patch over the base,
// while the raw contiguous accessors refuse with ErrNotContiguous.
func TestOverlayReads(t *testing.T) {
	const rows, lanes = 64, 3
	s := testStore(t, rows, lanes)
	base := viewWords(t, func() *Snapshot { sn := s.Acquire(); defer sn.Release(); return sn }())

	writes := []RowWrite{
		{Row: 0, Vals: row(100, 101, 102)},
		{Row: 5, Vals: row(200, 201, 202)},
		{Row: 6, Vals: row(300, 301, 302)}, // adjacent to 5: one patched run
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
	want := applyWords(base, lanes, writes)

	// Chunks over the full range merge patch and base.
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
	// Row reads hit the patch and the base.
	if got := rowOf(sn, 5); got[0] != 200 {
		t.Fatalf("patched row 5 = %v", got)
	}
	if got := rowOf(sn, 7); got[0] != base[7*lanes] {
		t.Fatalf("base row 7 = %v, want %d", got, base[7*lanes])
	}
	// CopyWords assembles an unaligned window across patch boundaries.
	win := make([]uint32, 3*lanes+1)
	if err := sn.CopyWords(4*lanes+1, win); err != nil {
		t.Fatal(err)
	}
	for i := range win {
		if win[i] != want[4*lanes+1+i] {
			t.Fatalf("CopyWords word %d: %d, want %d", i, win[i], want[4*lanes+1+i])
		}
	}
	// The contiguous accessor refuses on an overlaid epoch.
	if _, err := sn.RowRange(0, rows); !errors.Is(err, ErrNotContiguous) {
		t.Fatalf("RowRange on overlay: %v, want ErrNotContiguous", err)
	}
}

// TestCompactionAtMaxDepth: the chain never exceeds the configured depth,
// folds exactly at the bound, and the folded epoch is contiguous again
// with the cumulative content of every layer.
func TestCompactionAtMaxDepth(t *testing.T) {
	const rows, lanes = 32, 2
	s := testStore(t, rows, lanes)
	s.SetMaxChainDepth(2)
	expect := viewWords(t, func() *Snapshot { sn := s.Acquire(); defer sn.Release(); return sn }())

	for i := 0; i < 7; i++ {
		writes := []RowWrite{{Row: uint64(i % rows), Vals: row(uint32(1000+i), uint32(2000+i))}}
		if _, err := s.Apply(writes); err != nil {
			t.Fatal(err)
		}
		expect = applyWords(expect, lanes, writes)
		if d := s.ChainDepth(); d > 2 {
			t.Fatalf("apply %d: chain depth %d exceeds bound 2", i, d)
		}
		sn := s.Acquire()
		got := viewWords(t, sn)
		sn.Release()
		for w := range expect {
			if got[w] != expect[w] {
				t.Fatalf("apply %d word %d: %d, want %d", i, w, got[w], expect[w])
			}
		}
	}
	// Depths cycle 1, 2, 0(fold), 1, 2, 0(fold), 1 over the seven applies.
	if d := s.ChainDepth(); d != 1 {
		t.Fatalf("final chain depth %d, want 1", d)
	}
	// A folded epoch earlier in the cycle is contiguous: force one now.
	if _, err := s.Apply(uniformWrites(lanes, 9, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Apply(uniformWrites(lanes, 9, 1)); err != nil {
		t.Fatal(err)
	}
	if d := s.ChainDepth(); d != 0 {
		t.Fatalf("depth %d after fold, want 0", d)
	}
	sn := s.Acquire()
	defer sn.Release()
	if _, err := sn.RowRange(0, sn.Rows()); err != nil {
		t.Fatalf("folded epoch not contiguous: %v", err)
	}
}

// TestAbortAcrossCompaction: rolling back a committed epoch whose install
// compacted the chain reinstates the overlaid predecessor bit-for-bit —
// rollback is pointer surgery on retained backings, whatever their shape.
func TestAbortAcrossCompaction(t *testing.T) {
	const rows, lanes = 16, 2
	s := testStore(t, rows, lanes)
	s.SetMaxChainDepth(1)
	// Epoch 1: an overlay at the depth bound.
	if _, err := s.Apply([]RowWrite{{Row: 3, Vals: row(71, 72)}}); err != nil {
		t.Fatal(err)
	}
	if d := s.ChainDepth(); d != 1 {
		t.Fatalf("depth %d, want 1", d)
	}
	pre := viewWords(t, func() *Snapshot { sn := s.Acquire(); defer sn.Release(); return sn }())

	// Epoch 2 via the two-phase path: the fold happens at Prepare.
	if err := s.Prepare(2, []RowWrite{{Row: 4, Vals: row(81, 82)}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(2); err != nil {
		t.Fatal(err)
	}
	if d := s.ChainDepth(); d != 0 {
		t.Fatalf("depth %d after compacting commit, want 0", d)
	}
	// Roll epoch 2 back: epoch 1's overlay chain must be reinstated intact.
	if err := s.Abort(2); err != nil {
		t.Fatal(err)
	}
	sn := s.Acquire()
	defer sn.Release()
	if sn.Epoch() != 1 {
		t.Fatalf("rolled back to epoch %d, want 1", sn.Epoch())
	}
	got := viewWords(t, sn)
	for i := range pre {
		if got[i] != pre[i] {
			t.Fatalf("word %d after rollback: %d, want %d", i, got[i], pre[i])
		}
	}
	if got := rowOf(sn, 4); got[0] == 81 {
		t.Fatal("aborted epoch's write visible after rollback")
	}
	// Epoch 2 is burned; the store keeps updating fine.
	if epoch, err := s.Apply(nil); err != nil || epoch != 3 {
		t.Fatalf("post-rollback apply: epoch %d, err %v", epoch, err)
	}
}

// TestApplyAllocBytes is the O(k·lanes) write-amplification contract: a
// k-row Apply on a 2^16-row table must allocate on the order of the patch,
// not the table — no full copy until compaction, and compaction folds reuse
// the spare pool.
func TestApplyAllocBytes(t *testing.T) {
	const rows, lanes, k = 1 << 16, 16, 16
	s := testStore(t, rows, lanes) // 4 MiB table
	targets := make([]uint64, k)
	for i := range targets {
		targets[i] = uint64(i * (rows / k))
	}
	writes := uniformWrites(lanes, 7, targets...)
	// Warm to steady state: past the first fold, the spare pool carries the
	// flat buffers and per-apply allocation settles.
	for i := 0; i < 3*(DefaultMaxChainDepth+1); i++ {
		if _, err := s.Apply(writes); err != nil {
			t.Fatal(err)
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	const iters = 2 * (DefaultMaxChainDepth + 1) // whole fold cycles
	for i := 0; i < iters; i++ {
		if _, err := s.Apply(writes); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&m1)
	perOp := (m1.TotalAlloc - m0.TotalAlloc) / iters
	// The patch is k·lanes·4 = 1 KiB plus book-keeping; the table is
	// 4 MiB. Allow generous slack for the runtime while staying orders of
	// magnitude below a per-apply table copy.
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
