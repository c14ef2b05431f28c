package store

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"gpudpf/internal/strategy"
)

func testStore(t testing.TB, rows, lanes int) *Store {
	t.Helper()
	tab, err := strategy.NewTable(rows, lanes)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tab.Data {
		tab.Data[i] = uint32(i)
	}
	s, err := New(tab)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func row(vals ...uint32) []uint32 { return vals }

// rowOf reads one snapshot row, panicking on error (in-RAM tables never
// fail; a panic fails the test from any goroutine).
func rowOf(sn *Snapshot, i int) []uint32 {
	r, err := sn.Row(i)
	if err != nil {
		panic(err)
	}
	return r
}

// uniformWrites builds a batch setting every listed row to a constant.
func uniformWrites(lanes int, v uint32, rows ...uint64) []RowWrite {
	writes := make([]RowWrite, len(rows))
	for i, r := range rows {
		vals := make([]uint32, lanes)
		for l := range vals {
			vals[l] = v
		}
		writes[i] = RowWrite{Row: r, Vals: vals}
	}
	return writes
}

// TestSnapshotPinning is the core copy-on-write contract: a reader pinned
// to epoch N keeps reading N's exact bytes while Apply installs N+1, and a
// fresh Acquire sees N+1.
func TestSnapshotPinning(t *testing.T) {
	s := testStore(t, 8, 2)
	old := s.Acquire()
	defer old.Release()
	if old.Epoch() != 0 {
		t.Fatalf("fresh store at epoch %d", old.Epoch())
	}
	oldRow := append([]uint32(nil), rowOf(old, 3)...)

	epoch, err := s.Apply([]RowWrite{{Row: 3, Vals: row(100, 200)}})
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 1 {
		t.Fatalf("Apply returned epoch %d, want 1", epoch)
	}
	for l, v := range rowOf(old, 3) {
		if v != oldRow[l] {
			t.Fatalf("pinned snapshot changed under the reader: row 3 lane %d now %d", l, v)
		}
	}
	fresh := s.Acquire()
	defer fresh.Release()
	if fresh.Epoch() != 1 {
		t.Fatalf("fresh snapshot at epoch %d, want 1", fresh.Epoch())
	}
	if got := rowOf(fresh, 3); got[0] != 100 || got[1] != 200 {
		t.Fatalf("row 3 after apply: %v", got)
	}
	// Untouched rows carried over.
	if got, want := rowOf(fresh, 5), rowOf(old, 5); got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("row 5 not carried into the new epoch: %v vs %v", got, want)
	}
}

// TestApplyValidation: out-of-range rows and wrong-width values are
// refused without installing anything.
func TestApplyValidation(t *testing.T) {
	s := testStore(t, 4, 2)
	if _, err := s.Apply([]RowWrite{{Row: 4, Vals: row(1, 2)}}); err == nil {
		t.Fatal("out-of-range row accepted")
	}
	if _, err := s.Apply([]RowWrite{{Row: 0, Vals: row(1)}}); err == nil {
		t.Fatal("wrong-width row accepted")
	}
	if s.Epoch() != 0 {
		t.Fatalf("failed applies advanced the epoch to %d", s.Epoch())
	}
}

// TestLastWriteWins: duplicate rows in one batch apply in order.
func TestLastWriteWins(t *testing.T) {
	s := testStore(t, 4, 1)
	if _, err := s.Apply([]RowWrite{{Row: 2, Vals: row(7)}, {Row: 2, Vals: row(9)}}); err != nil {
		t.Fatal(err)
	}
	sn := s.Acquire()
	defer sn.Release()
	if rowOf(sn, 2)[0] != 9 {
		t.Fatalf("row 2 = %d, want the later write (9)", rowOf(sn, 2)[0])
	}
}

// TestPrepareCommit: a staged epoch is invisible until commit, then
// becomes the current view; stale and double prepares are refused.
func TestPrepareCommit(t *testing.T) {
	s := testStore(t, 8, 2)
	if err := s.Prepare(1, []RowWrite{{Row: 0, Vals: row(5, 6)}}); err != nil {
		t.Fatal(err)
	}
	mid := s.Acquire()
	if mid.Epoch() != 0 || rowOf(mid, 0)[0] == 5 {
		t.Fatalf("staged epoch visible before commit: epoch %d row0 %v", mid.Epoch(), rowOf(mid, 0))
	}
	mid.Release()
	if err := s.Prepare(2, nil); err == nil {
		t.Fatal("second prepare accepted while one is staged")
	}
	if _, err := s.Apply(nil); err == nil {
		t.Fatal("Apply accepted while an epoch is staged")
	}
	if err := s.Commit(9); err == nil {
		t.Fatal("commit of a different epoch accepted")
	}
	if err := s.Commit(1); err != nil {
		t.Fatal(err)
	}
	sn := s.Acquire()
	defer sn.Release()
	if sn.Epoch() != 1 || rowOf(sn, 0)[0] != 5 {
		t.Fatalf("committed epoch not current: epoch %d row0 %v", sn.Epoch(), rowOf(sn, 0))
	}
	// A prepare at or below the effective epoch is a stale coordinator.
	if err := s.Prepare(1, nil); err == nil {
		t.Fatal("replayed epoch accepted")
	}
	// Gaps above are fine (a coordinator may have burned epochs).
	if err := s.Prepare(5, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(5); err != nil {
		t.Fatal(err)
	}
	if got := s.Epoch(); got != 5 {
		t.Fatalf("epoch %d after committing 5", got)
	}
}

// TestAbortStaged: aborting a staged epoch leaves the current view
// untouched and burns the number.
func TestAbortStaged(t *testing.T) {
	s := testStore(t, 4, 1)
	if err := s.Prepare(1, []RowWrite{{Row: 1, Vals: row(42)}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Abort(1); err != nil {
		t.Fatal(err)
	}
	sn := s.Acquire()
	if sn.Epoch() != 0 || rowOf(sn, 1)[0] == 42 {
		t.Fatalf("aborted stage leaked: epoch %d row1 %v", sn.Epoch(), rowOf(sn, 1))
	}
	sn.Release()
	if s.Epoch() != 1 {
		t.Fatalf("aborted epoch not burned: effective epoch %d, want 1", s.Epoch())
	}
	if err := s.Prepare(1, nil); err == nil {
		t.Fatal("burned epoch reissued")
	}
	if err := s.Prepare(2, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(2); err != nil {
		t.Fatal(err)
	}
}

// TestAbortRollsBackCommit: Abort of the CURRENT epoch reinstates the
// predecessor — the straggler-rolls-back path of the cluster handshake —
// and pinned readers of the rolled-back epoch keep a stable (if orphaned)
// view.
func TestAbortRollsBackCommit(t *testing.T) {
	s := testStore(t, 4, 1)
	if err := s.Prepare(1, []RowWrite{{Row: 2, Vals: row(77)}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(1); err != nil {
		t.Fatal(err)
	}
	orphan := s.Acquire() // a reader lands on the committed epoch
	if orphan.Epoch() != 1 || rowOf(orphan, 2)[0] != 77 {
		t.Fatalf("committed epoch wrong: %d %v", orphan.Epoch(), rowOf(orphan, 2))
	}
	if err := s.Abort(1); err != nil {
		t.Fatal(err)
	}
	sn := s.Acquire()
	defer sn.Release()
	if sn.Epoch() != 0 || rowOf(sn, 2)[0] == 77 {
		t.Fatalf("rollback did not reinstate epoch 0: epoch %d row2 %v", sn.Epoch(), rowOf(sn, 2))
	}
	// The orphaned reader's view is intact until released.
	if rowOf(orphan, 2)[0] != 77 {
		t.Fatal("orphaned snapshot mutated by rollback")
	}
	orphan.Release()
	// Epoch 1 is burned: the next update lands at 2.
	epoch, err := s.Apply(nil)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 2 {
		t.Fatalf("post-rollback apply landed at %d, want 2 (1 is burned)", epoch)
	}
	// Abort of an epoch the store never saw is an idempotent no-op.
	if err := s.Abort(9); err != nil {
		t.Fatal(err)
	}
}

// TestEmptyPrepareSharesBacking: an epoch tick with no writes must not
// copy the table.
func TestEmptyPrepareSharesBacking(t *testing.T) {
	s := testStore(t, 1024, 64)
	before := s.Acquire()
	if err := s.Prepare(1, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(1); err != nil {
		t.Fatal(err)
	}
	after := s.Acquire()
	bd, err := before.Row(0)
	if err != nil {
		t.Fatal(err)
	}
	ad, err := after.Row(0)
	if err != nil {
		t.Fatal(err)
	}
	if &bd[0] != &ad[0] {
		t.Fatal("empty epoch tick copied the table")
	}
	before.Release()
	after.Release()
}

// TestBackingRecycled: a write copies only the pages it touches, and the
// slots of a retired epoch — pooled pages and windows of the adopted array
// alike — take the next writes: a steady stream of Applys stops adding
// slots once the free list is warm, reuses the array's windows, and
// allocates no page.
func TestBackingRecycled(t *testing.T) {
	const rows, lanes, pageRows = 64, 4, 8
	s := testStoreRAM(t, rows, lanes, pageRows)
	r := s.cur.Load().t.root.(*ramRoot)
	writes := uniformWrites(lanes, 1, 0, 20, 63) // pages 0, 2 and 7
	for i := 0; i < 3; i++ {
		if _, err := s.Apply(writes); err != nil {
			t.Fatal(err)
		}
		if d := s.ChainDepth(); d != 1 {
			t.Fatalf("after apply %d chain depth is %d, want 1", i, d)
		}
	}
	// Current and rollback epochs map three written pages each, and the
	// three windows epoch 0 held are free for the next batch.
	slots := len(*r.bufs.Load())
	if want := rows/pageRows + 6; slots != want {
		t.Fatalf("%d slots after three three-page batches, want %d", slots, want)
	}
	if !slices.ContainsFunc(s.cur.Load().t.slot, func(sl int32) bool { return sl == 0 || sl == 2 }) {
		t.Fatalf("the freed windows took no write: page table %v", s.cur.Load().t.slot)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := s.Apply(writes); err != nil {
			t.Fatal(err)
		}
	})
	if len(*r.bufs.Load()) != slots {
		t.Fatalf("steady-state applies grew the root to %d slots from %d", len(*r.bufs.Load()), slots)
	}
	// The batch copy, the page table, its snapshot and closures: a fresh
	// page per write would add three.
	if allocs > 12 {
		t.Fatalf("steady-state Apply allocates %.1f objects/op; slots not recycled", allocs)
	}
}

// TestConcurrentReadersWriters hammers Acquire/Release against Apply and
// the two-phase path under -race: every snapshot a reader holds must be
// internally consistent (the writer always writes a whole epoch with one
// uniform value, so any mixed row values prove a torn view).
func TestConcurrentReadersWriters(t *testing.T) {
	const rows, lanes = 128, 4
	s := testStore(t, rows, lanes)
	// Epoch 0 content is non-uniform; normalize first.
	all := make([]uint64, rows)
	for i := range all {
		all[i] = uint64(i)
	}
	if _, err := s.Apply(uniformWrites(lanes, 1, all...)); err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				sn := s.Acquire()
				want := rowOf(sn, 0)[0]
				for i := 0; i < rows; i++ {
					for _, v := range rowOf(sn, i) {
						if v != want {
							select {
							case errs <- fmt.Errorf("torn snapshot at epoch %d: row %d has %d, row 0 has %d", sn.Epoch(), i, v, want):
							default:
							}
							sn.Release()
							return
						}
					}
				}
				sn.Release()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		v := uint32(2)
		for i := 0; i < 200; i++ {
			if i%3 == 0 {
				// Two-phase with an occasional abort.
				epoch := s.Epoch() + 1
				if err := s.Prepare(epoch, uniformWrites(lanes, v, all...)); err != nil {
					errs <- err
					return
				}
				if i%6 == 0 {
					if err := s.Abort(epoch); err != nil {
						errs <- err
						return
					}
					continue
				}
				if err := s.Commit(epoch); err != nil {
					errs <- err
					return
				}
			} else if _, err := s.Apply(uniformWrites(lanes, v, all...)); err != nil {
				errs <- err
				return
			}
			v++
		}
		stop.Store(true)
	}()
	wg.Wait()
	stop.Store(true)
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestEpochsNeverRecur: interleaved aborts and applies never reissue an
// epoch number.
func TestEpochsNeverRecur(t *testing.T) {
	s := testStore(t, 4, 1)
	seen := map[uint64]bool{0: true}
	for i := 0; i < 20; i++ {
		if i%4 == 2 {
			target := s.Epoch() + 1
			if err := s.Prepare(target, nil); err != nil {
				t.Fatal(err)
			}
			if err := s.Abort(target); err != nil {
				t.Fatal(err)
			}
			continue
		}
		epoch, err := s.Apply(uniformWrites(1, uint32(i), 0))
		if err != nil {
			t.Fatal(err)
		}
		if seen[epoch] {
			t.Fatalf("epoch %d reissued", epoch)
		}
		seen[epoch] = true
	}
}
