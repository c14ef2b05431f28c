package store

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"gpudpf/internal/strategy"
)

// testStoreRAM builds an in-RAM store over words 0, 1, 2, … paged at
// pageRows rows, so that a small table spans many pages.
func testStoreRAM(t testing.TB, rows, lanes, pageRows int) *Store {
	t.Helper()
	data := make([]uint32, rows*lanes)
	for i := range data {
		data[i] = uint32(i)
	}
	return newStore(rows, lanes, pageRows, newRAMRoot(data, rows, lanes, pageRows))
}

// refEpoch is the reference for one epoch: its number and its words.
type refEpoch struct {
	epoch uint64
	words []uint32
}

// pin is a snapshot held across ops with the words it must keep reading.
type pin struct {
	sn   *Snapshot
	want []uint32
}

// drawWrites draws a batch of 1–8 row writes, a quarter of them repeating
// the row before (the later write wins), and returns it with the words it
// leaves.
func drawWrites(rng *rand.Rand, words []uint32, rows, lanes int) ([]RowWrite, []uint32) {
	next := slices.Clone(words)
	writes := make([]RowWrite, 1+rng.IntN(8))
	for i := range writes {
		r := rng.IntN(rows)
		if i > 0 && rng.IntN(4) == 0 {
			r = int(writes[i-1].Row)
		}
		vals := make([]uint32, lanes)
		for l := range vals {
			vals[l] = rng.Uint32()
		}
		writes[i] = RowWrite{Row: uint64(r), Vals: vals}
		copy(next[r*lanes:], vals)
	}
	return writes, next
}

// checkVersions holds the store's slot bookkeeping to the page tables
// alive on its current root — current, rollback, staged and pinned: each
// slot counts exactly the tables that map it, every reusable slot none
// maps is on the free list once, nothing mapped is, and on a paged root
// no unmapped version stays cached.
func checkVersions(s *Store, pins []pin) error {
	cur := s.cur.Load().t
	tables := map[*pageTable]bool{cur: true}
	if s.prev != nil {
		tables[s.prev.t] = true
	}
	if s.stage != nil {
		tables[s.stage.t] = true
	}
	for _, p := range pins {
		if p.sn.t.root == cur.root {
			tables[p.sn.t] = true
		}
	}
	v := cur.root.vers()
	want := make([]int32, len(v.refs))
	for t := range tables {
		for _, sl := range t.slot {
			want[sl]++
		}
	}
	if !slices.Equal(want, v.refs) {
		return fmt.Errorf("slot refs %v, the live page tables map %v", v.refs, want)
	}
	spare := map[int32]bool{}
	for _, sl := range v.spare {
		if want[sl] != 0 || spare[sl] {
			return fmt.Errorf("free list %v holds mapped or repeated slot %d", v.spare, sl)
		}
		spare[sl] = true
	}
	for sl, n := range want {
		reusable := sl >= len(cur.slot)
		switch r := cur.root.(type) {
		case *ramRoot:
			reusable = len((*r.bufs.Load())[sl]) == r.pageRows*r.lanes
		case *PagedBacking:
			r.mu.Lock()
			_, cached := r.pages[sl]
			r.mu.Unlock()
			if n == 0 && cached {
				return fmt.Errorf("slot %d is mapped by no epoch but still cached", sl)
			}
		}
		if n == 0 && reusable && !spare[int32(sl)] {
			return fmt.Errorf("slot %d is mapped by no epoch and not free", sl)
		}
	}
	return nil
}

// checkReads holds every read surface of sn to want: a pass over a drawn
// range on 1, 2 and 4 workers, Row, RowRange (which an unwritten in-RAM
// table must serve) and a drawn CopyWords window.
func checkReads(t *testing.T, seed uint64, rng *rand.Rand, sn *Snapshot, want []uint32) {
	t.Helper()
	rows, lanes := sn.Rows(), sn.Lanes()
	lo := rng.IntN(rows + 1)
	hi := lo + rng.IntN(rows-lo+1)
	for _, w := range []int{1, 2, 4} {
		checkPass(t, sn, pagedPassCase{rows: rows, lanes: lanes, lo: lo, hi: hi, workers: w}, want, nil)
	}
	i := rng.IntN(rows)
	if got, err := sn.Row(i); err != nil || !slices.Equal(got, want[i*lanes:(i+1)*lanes]) {
		t.Errorf("seed %d epoch %d: row %d = %v, %v", seed, sn.Epoch(), i, got, err)
	}
	got, err := sn.RowRange(lo, hi)
	_, ram := sn.t.root.(*ramRoot)
	switch {
	case err == nil && !slices.Equal(got, want[lo*lanes:hi*lanes]):
		t.Errorf("seed %d epoch %d: RowRange(%d, %d) differs from the reference", seed, sn.Epoch(), lo, hi)
	case err != nil && (!errors.Is(err, ErrNotContiguous) || ram && sn.t.flat):
		t.Errorf("seed %d epoch %d: RowRange(%d, %d): %v", seed, sn.Epoch(), lo, hi, err)
	}
	off := rng.IntN(len(want) + 1)
	dst := make([]uint32, rng.IntN(len(want)-off+1))
	if err := sn.CopyWords(off, dst); err != nil || !slices.Equal(dst, want[off:off+len(dst)]) {
		t.Errorf("seed %d epoch %d: CopyWords(%d, %d words) differs: %v", seed, sn.Epoch(), off, len(dst), err)
	}
}

// TestPageTableMatchesReference is the seeded differential test of the
// page table. Each seed draws a root (in RAM or paged from a file through
// a drawn cache), a page size (one row, one that does not divide the row
// count, or the default) and a sequence of Apply, Prepare+Commit,
// Prepare+Abort, rollback of a committed epoch, empty ticks and partial or
// full Adopt, with snapshots pinned across ops and passes over them
// running while the ops write. After every op each pinned snapshot and
// the current epoch read exactly a plain per-epoch reference slice, and the
// slot bookkeeping matches the live page tables. A paged seed then runs
// checkPagedEpochs. A failure names its seed.
func TestPageTableMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 240 && !t.Failed(); seed++ {
		runPageTableSeed(t, seed)
	}
}

func runPageTableSeed(t *testing.T, seed uint64) {
	rng := rand.New(rand.NewPCG(seed, 39))
	rows, lanes := 1+rng.IntN(300), 1+rng.IntN(5)
	pageRows := pageRowsFor(DefaultPageBytes, rows, lanes)
	switch rng.IntN(3) {
	case 0:
		pageRows = 1
	case 1:
		for pageRows = 1; rows > 2 && rows%pageRows == 0; {
			pageRows = 2 + rng.IntN(rows-2)
		}
	}
	base := make([]uint32, rows*lanes)
	for i := range base {
		base[i] = rng.Uint32()
	}
	var s *Store
	var pb *PagedBacking
	if rng.IntN(2) == 0 {
		s = newStore(rows, lanes, pageRows, newRAMRoot(slices.Clone(base), rows, lanes, pageRows))
	} else {
		path := filepath.Join(t.TempDir(), "table.gpdf")
		err := WriteTableFileRows(path, rows, lanes, func(r int, dst []uint32) { copy(dst, base[r*lanes:]) })
		if err != nil {
			t.Fatal(err)
		}
		pageBytes := pageRows * lanes * 4
		pages := (rows + pageRows - 1) / pageRows
		if pb, err = OpenPaged(path, PagedConfig{PageBytes: pageBytes, CacheBytes: int64((1 + rng.IntN(pages)) * pageBytes)}); err != nil {
			t.Fatal(err)
		}
		defer pb.Close()
		if s, err = NewPaged(pb); err != nil {
			t.Fatal(err)
		}
	}
	cur := refEpoch{0, base}
	var prev *refEpoch // the rollback window
	var pins []pin
	defer func() {
		for _, p := range pins {
			p.sn.Release()
		}
	}()
	fail := func(op string, err error) {
		t.Fatalf("seed %d (%d×%d, %d-row pages, paged %v): %s: %v", seed, rows, lanes, pageRows, pb != nil, op, err)
	}
	for op := 10 + rng.IntN(15); op > 0; op-- {
		kind := rng.IntN(7)
		var bg sync.WaitGroup
		if len(pins) > 0 && kind != 6 && rng.IntN(2) == 0 {
			p, w := pins[rng.IntN(len(pins))], []int{1, 2, 4}[rng.IntN(3)]
			bg.Add(1)
			go func() {
				defer bg.Done()
				checkPass(t, p.sn, pagedPassCase{rows: rows, lanes: lanes, hi: rows, workers: w}, p.want, nil)
			}()
		}
		next := s.Epoch() + 1 + uint64(rng.IntN(2))
		writes, words := drawWrites(rng, cur.words, rows, lanes)
		switch kind {
		case 0, 1:
			e, err := s.Apply(writes)
			if err != nil {
				fail("apply", err)
			}
			prev, cur = &refEpoch{cur.epoch, cur.words}, refEpoch{e, words}
		case 2:
			if err := s.Prepare(next, writes); err != nil {
				fail("prepare", err)
			}
			if rng.IntN(2) == 0 {
				if err := s.Abort(next); err != nil {
					fail("abort staged", err)
				}
				break
			}
			if err := checkVersions(s, pins); err != nil {
				fail("staged", err)
			}
			if err := s.Commit(next); err != nil {
				fail("commit", err)
			}
			prev, cur = &refEpoch{cur.epoch, cur.words}, refEpoch{next, words}
		case 3:
			if err := s.Abort(cur.epoch); err != nil {
				fail("rollback", err)
			}
			if prev != nil {
				cur, prev = *prev, nil
			}
		case 4:
			e, err := s.Apply(nil)
			if err != nil {
				fail("tick", err)
			}
			prev, cur = &refEpoch{cur.epoch, cur.words}, refEpoch{e, cur.words}
		case 5:
			lo, hi := 0, rows
			if rng.IntN(2) == 0 {
				lo = rng.IntN(rows)
				hi = lo + 1 + rng.IntN(rows-lo)
			}
			vals := make([]uint32, (hi-lo)*lanes)
			for i := range vals {
				vals[i] = rng.Uint32()
			}
			if err := s.Adopt(next, next+uint64(rng.IntN(2)), lo, hi, vals); err != nil {
				fail("adopt", err)
			}
			words = slices.Clone(cur.words)
			copy(words[lo*lanes:], vals)
			prev, cur = nil, refEpoch{next, words}
		case 6:
			if len(pins) > 0 {
				i := rng.IntN(len(pins))
				pins[i].sn.Release()
				pins = slices.Delete(pins, i, i+1)
			}
		}
		bg.Wait()
		if rng.IntN(2) == 0 && len(pins) < 4 {
			pins = append(pins, pin{s.Acquire(), cur.words})
		}
		sn := s.Acquire()
		if sn.Epoch() != cur.epoch {
			fail("state", fmt.Errorf("epoch %d, reference epoch %d", sn.Epoch(), cur.epoch))
		}
		checkReads(t, seed, rng, sn, cur.words)
		sn.Release()
		for _, p := range pins {
			checkReads(t, seed, rng, p.sn, p.want)
		}
		if err := checkVersions(s, pins); err != nil {
			fail("slots", err)
		}
		if t.Failed() {
			fail("reads", errors.New("see above"))
		}
	}
	if pb != nil {
		checkPagedEpochs(t, seed, rng, s, pb, cur, pins)
	}
}

// checkPagedEpochs runs the paged root's two extra checks. Two passes at
// different epochs in flight together each read their own epoch's bytes,
// and a page version both map is read once for both: the pair reads at
// most the versions either maps, plus the two pages the first took before
// the second joined. Then the table file is cut at a page the current
// epoch still maps from it, the cache is emptied, and an Apply that writes
// an earlier page and that one fails with ErrPageRead, leaves the epoch and every slot as they
// were, and the store still reads and writes the pages before the cut.
func checkPagedEpochs(t *testing.T, seed uint64, rng *rand.Rand, s *Store, pb *PagedBacking, cur refEpoch, pins []pin) {
	a := s.Acquire()
	defer a.Release()
	if len(pins) > 0 {
		b := pins[0]
		union := map[int32]bool{}
		for p := range a.t.slot {
			union[a.t.slot[p]], union[b.sn.t.slot[p]] = true, true
		}
		loads := pb.Loads()
		check := func(want []uint32) func(int, strategy.Chunk) error {
			return func(_ int, c strategy.Chunk) error {
				if !slices.Equal(c.Data, want[c.Row*a.Lanes():c.Row*a.Lanes()+len(c.Data)]) {
					return errors.New("chunk differs from its epoch's reference")
				}
				return nil
			}
		}
		errA, errB, _ := joinedPair(pb, a, b.sn, check(cur.words), check(b.want))
		if errA != nil || errB != nil {
			t.Fatalf("seed %d: joined passes at epochs %d and %d: %v, %v", seed, a.Epoch(), b.sn.Epoch(), errA, errB)
		}
		if n := pb.Loads() - loads; n > int64(len(union)+2) {
			t.Fatalf("seed %d: joined passes at two epochs read %d pages, want at most %d versions + 2", seed, n, len(union))
		}
	}
	cut := slices.IndexFunc(a.t.slot, func(sl int32) bool { return sl > 0 && int(sl) < pb.nPages })
	if cut < 0 {
		return
	}
	if err := os.Truncate(pb.f.Name(), pagedHeaderBytes+int64(cut*pb.pageRows*pb.lanes*4)); err != nil {
		t.Fatal(err)
	}
	// A write copies a resident page rather than reading its file, so the
	// cut page must first leave the cache for the Apply to need the file.
	pb.mu.Lock()
	for pb.lru != nil {
		pb.evictLocked(pb.lru)
	}
	pb.mu.Unlock()
	epoch := s.Epoch()
	before := pb.pageRows * cut
	writes, _ := drawWrites(rng, cur.words, before, pb.lanes)
	writes = append(writes, RowWrite{Row: uint64(before), Vals: make([]uint32, pb.lanes)})
	if _, err := s.Apply(writes); !errors.Is(err, ErrPageRead) {
		t.Fatalf("seed %d: Apply through a page past the cut file: %v, want ErrPageRead", seed, err)
	}
	if s.Epoch() != epoch {
		t.Fatalf("seed %d: failed Apply moved the epoch from %d to %d", seed, epoch, s.Epoch())
	}
	if err := checkVersions(s, append(pins, pin{sn: a})); err != nil {
		t.Fatalf("seed %d: after a failed Apply: %v", seed, err)
	}
	writes, words := drawWrites(rng, cur.words, before, pb.lanes)
	if _, err := s.Apply(writes); err != nil {
		t.Fatalf("seed %d: Apply before the cut after a failed one: %v", seed, err)
	}
	sn := s.Acquire()
	defer sn.Release()
	got := make([]uint32, before*pb.lanes)
	if err := sn.CopyWords(0, got); err != nil || !slices.Equal(got, words[:len(got)]) {
		t.Fatalf("seed %d: rows before the cut after a failed Apply: %v", seed, err)
	}
}

// BenchmarkApply times one Apply of 16 random rows of 64 lanes on in-RAM
// tables of 64 MiB and 256 MiB and on a 16 MiB paged table (256 KiB pages
// through a 4 MiB cache, the file in the OS page cache), and reports the
// slowest Apply beside the mean.
func BenchmarkApply(b *testing.B) {
	const lanes, k = 64, 16
	for _, c := range []struct {
		name  string
		bytes int
		paged bool
	}{{"ram-64MiB", 64 << 20, false}, {"ram-256MiB", 256 << 20, false}, {"paged-16MiB", 16 << 20, true}} {
		b.Run(c.name, func(b *testing.B) {
			rows := c.bytes / (4 * lanes)
			fill := func(r int, dst []uint32) {
				for l := range dst {
					dst[l] = uint32(r*lanes + l)
				}
			}
			var s *Store
			var err error
			if c.paged {
				path := filepath.Join(b.TempDir(), "table.gpdf")
				if err := WriteTableFileRows(path, rows, lanes, fill); err != nil {
					b.Fatal(err)
				}
				pb, err := OpenPaged(path, PagedConfig{CacheBytes: 4 << 20})
				if err != nil {
					b.Fatal(err)
				}
				defer pb.Close()
				s, err = NewPaged(pb)
			} else {
				tab, terr := strategy.NewTable(rows, lanes)
				if terr != nil {
					b.Fatal(terr)
				}
				for r := 0; r < rows; r++ {
					fill(r, tab.Row(r))
				}
				s, err = New(tab)
			}
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewPCG(1, 2))
			batches := make([][]RowWrite, 64)
			for i := range batches {
				batches[i] = make([]RowWrite, k)
				for j := range batches[i] {
					batches[i][j] = RowWrite{Row: uint64(rng.IntN(rows)), Vals: make([]uint32, lanes)}
				}
			}
			var worst time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				start := time.Now()
				if _, err := s.Apply(batches[i%len(batches)]); err != nil {
					b.Fatal(err)
				}
				worst = max(worst, time.Since(start))
			}
			b.ReportMetric(float64(worst.Microseconds())/1e3, "worst-ms")
		})
	}
}
