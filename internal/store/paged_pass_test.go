package store

import (
	"errors"
	"io"
	mathrand "math/rand"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gpudpf/internal/dpf"
	"gpudpf/internal/strategy"
)

// TestPagedPassTakesResidentPagesFirst: a pass reads the file only for the
// pages it does not find resident. Through a cache a quarter of the table,
// two back-to-back one-worker passes load 256 pages and then 192 — the 64
// the first pass left resident are the second's first 64 chunks, not the
// first pages its tail evicts (an ascending pass through an LRU loads all
// 256 every time). Hits counts each page once per pass, also over a
// written epoch: its pages are new versions under new cache keys, so of the
// 64 resident pages the one it rewrote (page 140) is read again, in its
// new version, and the other 63 are hits.
func TestPagedPassTakesResidentPagesFirst(t *testing.T) {
	const rows, lanes = 16384, 4 // 256 pages of 64 rows, 64 of them cached
	tab, pb := pagedFixture(t, rows, lanes, 1<<10)
	if pb.nPages != 256 {
		t.Fatalf("fixture has %d pages, want 256", pb.nPages)
	}
	s, err := NewPaged(pb)
	if err != nil {
		t.Fatal(err)
	}
	pass := func(want []uint32) (loads, hits int64) {
		t.Helper()
		sn := s.Acquire()
		defer sn.Release()
		l0, h0 := pb.Loads(), pb.Hits()
		got := viewWords(t, sn)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("word %d: %d, want %d", i, got[i], want[i])
			}
		}
		return pb.Loads() - l0, pb.Hits() - h0
	}
	if l, h := pass(tab.Data); l != 256 || h != 0 {
		t.Fatalf("cold pass: %d loads, %d hits; want 256 loads, 0 hits", l, h)
	}
	if l, h := pass(tab.Data); l != 192 || h != 64 {
		t.Fatalf("second pass: %d loads, %d hits; want 192 loads, 64 hits", l, h)
	}
	// Writes inside pages, across a page edge and at the table's ends
	// touch pages 0, 1, 15, 140 and 255; only 140 was resident.
	var writes []RowWrite
	for _, r := range []int{0, 5, 63, 64, 65, 1000, 1001, 9000, rows - 1} {
		writes = append(writes, RowWrite{Row: uint64(r), Vals: row(uint32(r), 1, 2, 3)})
	}
	if _, err := s.Apply(writes); err != nil {
		t.Fatal(err)
	}
	if l, h := pass(applyWords(tab.Data, lanes, writes)); l != 193 || h != 63 {
		t.Fatalf("pass over a written epoch: %d loads, %d hits; want 193 loads, 63 hits", l, h)
	}
}

// pagedPassCase is one drawn shape of TestPagedOrderFreePass.
type pagedPassCase struct {
	rows, lanes, pageRows, cachePages int
	lo, hi, workers                   int
	depth                             int // update batches over the paged root
}

// drawPagedPassCase draws a table shape, page size, cache budget (from one
// page to the whole table), range, worker count and number of updates.
func drawPagedPassCase(rng *rand.Rand) pagedPassCase {
	var c pagedPassCase
	c.rows = 1 + rng.IntN(3000)
	c.lanes = 1 + rng.IntN(9)
	c.pageRows = 1 + rng.IntN(200)
	pages := (c.rows + c.pageRows - 1) / c.pageRows
	c.cachePages = 1 + rng.IntN(pages)
	c = redrawPass(rng, c)
	c.depth = rng.IntN(5)
	return c
}

// pagedEpoch is one epoch of a drawn case: a pinned snapshot and the
// words every read of it must see.
type pagedEpoch struct {
	sn   *Snapshot
	want []uint32
}

// openPagedCase writes the case's table, opens it through the case's cache
// and applies c.depth update batches to it, each a few runs of written
// rows straddling page edges. It returns the store and one pinned epoch
// per batch, 0 (the table file) to c.depth (the current epoch), released
// when the test ends.
func openPagedCase(t *testing.T, rng *rand.Rand, c pagedPassCase) (*Store, *PagedBacking, []pagedEpoch) {
	t.Helper()
	tab, err := strategy.NewTable(c.rows, c.lanes)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tab.Data {
		tab.Data[i] = rng.Uint32()
	}
	path := filepath.Join(t.TempDir(), "table.gpdf")
	if err := WriteTableFile(path, tab); err != nil {
		t.Fatal(err)
	}
	pageBytes := c.pageRows * c.lanes * 4
	pb, err := OpenPaged(path, PagedConfig{PageBytes: pageBytes, CacheBytes: int64(c.cachePages * pageBytes)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pb.Close() })
	s, err := NewPaged(pb)
	if err != nil {
		t.Fatal(err)
	}
	epochs := []pagedEpoch{{s.Acquire(), tab.Data}}
	t.Cleanup(func() {
		for _, e := range epochs {
			e.sn.Release()
		}
	})
	for d := 0; d < c.depth; d++ {
		var writes []RowWrite
		for run := 1 + rng.IntN(3); run > 0; run-- {
			edge := c.pageRows * rng.IntN((c.rows+c.pageRows-1)/c.pageRows)
			for r := max(0, edge-rng.IntN(3)); r < min(c.rows, edge+1+rng.IntN(3)); r++ {
				vals := make([]uint32, c.lanes)
				for l := range vals {
					vals[l] = rng.Uint32()
				}
				writes = append(writes, RowWrite{Row: uint64(r), Vals: vals})
			}
		}
		if _, err := s.Apply(writes); err != nil {
			t.Fatal(err)
		}
		epochs = append(epochs, pagedEpoch{s.Acquire(), applyWords(epochs[d].want, c.lanes, writes)})
	}
	if got, want := s.ChainDepth(), min(c.depth, 1); got != want {
		t.Fatalf("chain depth %d after %d batches, want %d", got, c.depth, want)
	}
	return s, pb, epochs
}

// redrawPass draws case c's range (a quarter of the time the whole
// table) and worker budget, as another pass over the same table has.
func redrawPass(rng *rand.Rand, c pagedPassCase) pagedPassCase {
	c.lo = rng.IntN(c.rows + 1)
	c.hi = c.lo + rng.IntN(c.rows-c.lo+1)
	if rng.IntN(4) == 0 {
		c.lo, c.hi = 0, c.rows
	}
	c.workers = []int{1, 2, 3, 8}[rng.IntN(4)]
	return c
}

// checkPass runs one Pass over [c.lo, c.hi) and reports (with t.Error, so
// it may run off the test goroutine) any row visited other than exactly
// once, any chunk whose data differs from want, a worker index out of
// range, or two calls on one worker index overlapping. entered, if not
// nil, runs at the start of every callback.
func checkPass(t *testing.T, sn *Snapshot, c pagedPassCase, want []uint32, entered func()) {
	visits := make([]atomic.Int32, c.hi-c.lo)
	busy := make([]atomic.Bool, c.workers)
	err := sn.Pass(c.lo, c.hi, c.workers, func(w int, ch strategy.Chunk) error {
		if entered != nil {
			entered()
		}
		if w < 0 || w >= c.workers {
			return errors.New("worker index out of range")
		}
		if !busy[w].CompareAndSwap(false, true) {
			return errors.New("two calls on one worker overlap")
		}
		defer busy[w].Store(false)
		if len(ch.Data) == 0 || len(ch.Data)%c.lanes != 0 || ch.Row < c.lo || ch.Row+len(ch.Data)/c.lanes > c.hi {
			return errors.New("chunk outside the range or not whole rows")
		}
		for i, v := range ch.Data {
			if v != want[ch.Row*c.lanes+i] {
				return errors.New("chunk data differs from the expected table")
			}
		}
		for r := ch.Row; r < ch.Row+len(ch.Data)/c.lanes; r++ {
			visits[r-c.lo].Add(1)
		}
		return nil
	})
	if err != nil {
		t.Errorf("%+v: %v", c, err)
		return
	}
	for i := range visits {
		if n := visits[i].Load(); n != 1 {
			t.Errorf("%+v: row %d visited %d times", c, c.lo+i, n)
			return
		}
	}
}

// staggered runs pass(i, entered) for i in [0, n), each on a goroutine of
// its own that starts once the pass before it has entered its first
// callback or returned — so every pass but the first can join one already
// streaming — and waits for all of them.
func staggered(n int, pass func(i int, entered func())) {
	var wg sync.WaitGroup
	prev := make(chan struct{})
	close(prev)
	for i := 0; i < n; i++ {
		<-prev
		started := make(chan struct{})
		var once sync.Once
		mark := func() { once.Do(func() { close(started) }) }
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer mark()
			pass(i, mark)
		}()
		prev = started
	}
	wg.Wait()
}

// TestPagedOrderFreePass is the seeded property test of the paged scan:
// over drawn shapes, page sizes, cache budgets, ranges, worker budgets
// {1, 2, 3, 8} and 0–4 update batches whose written runs straddle page
// edges, every row of a range is visited exactly once with the
// expected data — alone, and with 3–4 passes in flight that start
// staggered, each over its own range, budget and epoch, so later passes
// ride earlier ones' pages — no pass's callback sees a worker index past
// its budget or two overlapping calls on one index, and three concurrent
// runs over their own epochs, ranges and budgets answer bit-identically
// to the in-RAM view. Then the file is cut short (checkCutFile).
func TestPagedOrderFreePass(t *testing.T) {
	rng := rand.New(rand.NewPCG(2029, 29))
	prg := dpf.NewAESPRG()
	type drawn struct {
		c pagedPassCase
		e pagedEpoch
	}
	for trial := 0; trial < 100; trial++ {
		c := drawPagedPassCase(rng)
		s, pb, epochs := openPagedCase(t, rng, c)
		top := epochs[len(epochs)-1]
		checkPass(t, top.sn, c, top.want, nil)

		passes := make([]drawn, 3+rng.IntN(2))
		for i := range passes {
			passes[i] = drawn{redrawPass(rng, c), epochs[rng.IntN(len(epochs))]}
		}
		staggered(len(passes), func(i int, entered func()) {
			checkPass(t, passes[i].e.sn, passes[i].c, passes[i].e.want, entered)
		})
		if t.Failed() {
			t.FailNow()
		}

		keyRng := mathrand.New(mathrand.NewSource(int64(rng.Uint64())))
		var keys []*dpf.Key
		for q := 0; q < 3; q++ {
			k0, _, err := dpf.Gen(prg, uint64(keyRng.Intn(c.rows)), dpf.DomainBits(c.rows), []uint32{1}, keyRng)
			if err != nil {
				t.Fatal(err)
			}
			keys = append(keys, &k0)
		}
		runs := make([]drawn, 3)
		refs := make([][][]uint32, len(runs))
		for i := range runs {
			runs[i] = drawn{redrawPass(rng, c), epochs[rng.IntN(len(epochs))]}
			for runs[i].c.lo == runs[i].c.hi { // a run needs a row range
				runs[i].c = redrawPass(rng, c)
			}
			ram := &strategy.Table{NumRows: c.rows, Lanes: c.lanes, Data: runs[i].e.want}
			st := strategy.MemBoundTree{K: 8, Workers: runs[i].c.workers}
			var ctr strategy.Counters
			ref, err := strategy.RunRange(st, prg, keys, ram.View(), runs[i].c.lo, runs[i].c.hi, &ctr)
			if err != nil {
				t.Fatal(err)
			}
			refs[i] = ref
		}
		var wg sync.WaitGroup
		for i, d := range runs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				st := strategy.MemBoundTree{K: 8, Workers: d.c.workers}
				var ctr strategy.Counters
				got, err := strategy.RunRange(st, prg, keys, d.e.sn, d.c.lo, d.c.hi, &ctr)
				if err != nil {
					t.Errorf("%+v: paged run: %v", d.c, err)
					return
				}
				for q := range refs[i] {
					for l := range refs[i][q] {
						if got[q][l] != refs[i][q][l] {
							t.Errorf("%+v: q=%d lane=%d: paged %d != in-RAM %d", d.c, q, l, got[q][l], refs[i][q][l])
							return
						}
					}
				}
			}()
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		if trial%4 == 0 {
			checkCutFile(t, s, pb, c)
		}
	}
}

// checkCutFile cuts the case's table file short after its header (and its
// scratch file to nothing) and runs three whole-table passes on c.workers, 1 and 3 workers, each starting
// once the one before it is streaming (staggered): every pass ends with
// ErrPageRead, every worker returns (none is left parked on a slot or
// waiting on a read at its tail), no goroutine outlives them, every page
// reference is released, and the scan is left with no pass in flight and
// no slot held.
func checkCutFile(t *testing.T, s *Store, pb *PagedBacking, c pagedPassCase) {
	t.Helper()
	if err := os.Truncate(pb.f.Name(), pagedHeaderBytes); err != nil {
		t.Fatal(err)
	}
	if pb.scratch != nil {
		if err := pb.scratch.Truncate(0); err != nil {
			t.Fatal(err)
		}
	}
	sn := s.Acquire()
	defer sn.Release()
	pb.mu.Lock()
	// A cache that holds every page version of the epoch serves every
	// pass without a read.
	allResident := !slices.ContainsFunc(sn.t.slot, func(sl int32) bool { return pb.pages[int(sl)] == nil })
	pb.mu.Unlock()
	base := runtime.NumGoroutine()
	budgets := []int{c.workers, 1, 3}
	errs := make([]error, len(budgets))
	staggered(len(budgets), func(i int, entered func()) {
		errs[i] = sn.Pass(0, c.rows, budgets[i], func(int, strategy.Chunk) error {
			entered()
			return nil
		})
	})
	for i, err := range errs {
		if allResident {
			if err != nil {
				t.Fatalf("%+v: pass %d over a fully resident table: %v", c, i, err)
			}
			continue
		}
		if !errors.Is(err, ErrPageRead) || !(errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)) {
			t.Fatalf("%+v: pass %d over a cut file: %v, want ErrPageRead wrapping the short read", c, i, err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%+v: %d goroutines outlive the failed passes (%d before)", c, runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
	}
	pb.mu.Lock()
	defer pb.mu.Unlock()
	for idx, ent := range pb.pages {
		if ent.refs != 0 {
			t.Fatalf("%+v: page %d still holds %d references after the failed passes", c, idx, ent.refs)
		}
	}
	for idx, l := range pb.loading {
		if l {
			t.Fatalf("%+v: page %d still marked loading after the failed passes", c, idx)
		}
	}
	if len(pb.passes) != 0 {
		t.Fatalf("%+v: %d passes still in flight after every pass returned", c, len(pb.passes))
	}
	for w, sl := range pb.slots {
		if sl.held {
			t.Fatalf("%+v: slot %d still held after every pass returned", c, w)
		}
	}
}

// waitJoined yields until n passes are in flight on pb's scan.
func waitJoined(pb *PagedBacking, n int) {
	for {
		pb.mu.Lock()
		k := len(pb.passes)
		pb.mu.Unlock()
		if k >= n {
			return
		}
		runtime.Gosched()
	}
}

// joinedPair runs pass A over the whole of sn on two workers and holds
// both of A's workers inside their first page's callback until pass B over
// the whole of snB (two workers too, callback fnB) has joined the scan.
// It returns both passes' errors and A's visits per row; fnA, if not nil,
// also runs on each of A's chunks. A's first two pages are taken before B
// joins; every page after them that both map to one version is fed to
// both.
func joinedPair(pb *PagedBacking, sn, snB *Snapshot, fnA, fnB func(int, strategy.Chunk) error) (errA, errB error, visitsA []atomic.Int32) {
	const workers = 2
	visitsA = make([]atomic.Int32, sn.Rows())
	joined := make(chan struct{})
	var launch sync.Once
	var wg sync.WaitGroup
	errA = sn.Pass(0, sn.Rows(), workers, func(w int, c strategy.Chunk) error {
		launch.Do(func() {
			wg.Add(2)
			go func() {
				defer wg.Done()
				errB = snB.Pass(0, snB.Rows(), workers, fnB)
			}()
			go func() {
				defer wg.Done()
				waitJoined(pb, 2)
				close(joined)
			}()
		})
		<-joined
		for r := c.Row; r < c.Row+len(c.Data)/sn.Lanes(); r++ {
			visitsA[r].Add(1)
		}
		if fnA != nil {
			return fnA(w, c)
		}
		return nil
	})
	wg.Wait()
	return errA, errB, visitsA
}

// onePageCache opens a 64-page table of 4096 × 4 words through a cache of
// one page and returns the table and a pinned snapshot of it.
func onePageCache(t *testing.T) (*strategy.Table, *PagedBacking, *Snapshot) {
	t.Helper()
	const rows, lanes, pageRows = 4096, 4, 64
	tab, err := strategy.NewTable(rows, lanes)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tab.Data {
		tab.Data[i] = uint32(i*2654435761 + 7)
	}
	path := filepath.Join(t.TempDir(), "table.gpdf")
	if err := WriteTableFile(path, tab); err != nil {
		t.Fatal(err)
	}
	pageBytes := pageRows * lanes * 4
	pb, err := OpenPaged(path, PagedConfig{PageBytes: pageBytes, CacheBytes: int64(pageBytes)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pb.Close() })
	s, err := NewPaged(pb)
	if err != nil {
		t.Fatal(err)
	}
	sn := s.Acquire()
	t.Cleanup(sn.Release)
	return tab, pb, sn
}

// TestPagedJoinedPassRidesPages: a pass that starts while another is
// streaming rides its pages. Through a cache of one page, pass B joins
// while both of pass A's workers are inside their first page's callback;
// from then on every page a worker holds is fed to both, so the two
// passes together read each page once plus the two A took alone — at most
// pages + workers reads, where two passes that each read for themselves
// read about twice the table. Both see every row exactly once.
func TestPagedJoinedPassRidesPages(t *testing.T) {
	tab, pb, sn := onePageCache(t)
	lanes := tab.Lanes
	visitsB := make([]atomic.Int32, tab.NumRows)
	errA, errB, visitsA := joinedPair(pb, sn, sn, nil, func(_ int, c strategy.Chunk) error {
		for i, v := range c.Data {
			if v != tab.Data[c.Row*lanes+i] {
				return errors.New("chunk data differs from the table")
			}
		}
		for r := c.Row; r < c.Row+len(c.Data)/lanes; r++ {
			visitsB[r].Add(1)
		}
		return nil
	})
	if errA != nil || errB != nil {
		t.Fatalf("pass A: %v, pass B: %v", errA, errB)
	}
	for r := range visitsB {
		if a, b := visitsA[r].Load(), visitsB[r].Load(); a != 1 || b != 1 {
			t.Fatalf("row %d visited %d times by A and %d by B, want once each", r, a, b)
		}
	}
	if loads, bound := pb.Loads(), int64(pb.nPages+2); loads > bound {
		t.Errorf("two joined passes read %d pages, want at most %d (pages + workers)", loads, bound)
	}
}

// TestPagedFailedReadEndsEveryRider: a failed read ends every pass riding
// the page. The table file is cut inside its last page, which B needs only
// from A's shared read (B reads its own first two pages after A fails):
// both passes return ErrPageRead, not just the one whose slot read it.
func TestPagedFailedReadEndsEveryRider(t *testing.T) {
	_, pb, sn := onePageCache(t)
	st, err := os.Stat(pb.f.Name())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(pb.f.Name(), st.Size()-4); err != nil {
		t.Fatal(err)
	}
	errA, errB, _ := joinedPair(pb, sn, sn, nil, func(int, strategy.Chunk) error { return nil })
	for name, err := range map[string]error{"A": errA, "B": errB} {
		if !errors.Is(err, ErrPageRead) {
			t.Errorf("pass %s over a table cut inside its last page: %v, want ErrPageRead", name, err)
		}
	}
}

// TestPagedRiderErrorEndsOnlyItsPass: a callback's error ends only its own
// pass. Pass B joins pass A's scan, and its callback fails on the first
// page it is fed — by A's workers, which hold both slots. B returns that
// error and stops at its next page; A returns nil having visited every
// row exactly once.
func TestPagedRiderErrorEndsOnlyItsPass(t *testing.T) {
	_, pb := pagedFixture(t, 4096, 4, 1<<10)
	s, err := NewPaged(pb)
	if err != nil {
		t.Fatal(err)
	}
	sn := s.Acquire()
	defer sn.Release()
	errRider := errors.New("rider callback failed")
	var calls atomic.Int32
	errA, errB, visitsA := joinedPair(pb, sn, sn, nil, func(int, strategy.Chunk) error {
		calls.Add(1)
		return errRider
	})
	if errA != nil {
		t.Fatalf("pass A, whose workers ran B's failing callback: %v, want nil", errA)
	}
	if !errors.Is(errB, errRider) {
		t.Fatalf("pass B: %v, want its own callback's error", errB)
	}
	if n := calls.Load(); n < 1 || n > 2 {
		t.Errorf("B's callback ran %d times, want 1 or 2 (a failed pass stops at each worker's next page)", n)
	}
	for r := range visitsA {
		if n := visitsA[r].Load(); n != 1 {
			t.Fatalf("pass A visited row %d %d times, want once", r, n)
		}
	}
}

// BenchmarkPagedConcurrentPasses times paged-update's in-process shape:
// 2^14 rows of 4 KiB (64 MiB) in 256 KiB pages through a 16 MiB cache, the
// file in the OS page cache, with two goroutines each running 4-key
// MemBoundTree passes on a two-worker budget — two batches in flight, as
// the serving stack runs them on two cores. It reports keys/s, pages read
// per key, and page visits per key (reads plus hits: how often a worker
// held a page, however many passes rode it).
func BenchmarkPagedConcurrentPasses(b *testing.B) {
	const rows, lanes, keysPerPass, inFlight = 1 << 14, 1024, 4, 2
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
	prg := dpf.NewAESPRG()
	rng := mathrand.New(mathrand.NewSource(37))
	keys := make([][]*dpf.Key, inFlight)
	for g := range keys {
		for q := 0; q < keysPerPass; q++ {
			k0, _, err := dpf.Gen(prg, uint64(rng.Intn(rows)), 14, []uint32{1}, rng)
			if err != nil {
				b.Fatal(err)
			}
			keys[g] = append(keys[g], &k0)
		}
	}
	st := strategy.MemBoundTree{K: 128, Workers: 2}
	run := func(g int) error {
		var ctr strategy.Counters
		_, err := strategy.RunRange(st, prg, keys[g], sn, 0, rows, &ctr)
		return err
	}
	// One warm pass each, so the cache holds what a steady state would.
	for g := range keys {
		if err := run(g); err != nil {
			b.Fatal(err)
		}
	}
	l0, h0 := pb.Loads(), pb.Hits()
	b.ResetTimer()
	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, inFlight)
	for g := range keys {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < b.N && errs[g] == nil; i++ {
				errs[g] = run(g)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	b.StopTimer()
	for _, err := range errs {
		if err != nil {
			b.Fatal(err)
		}
	}
	nKeys := float64(b.N * inFlight * keysPerPass)
	loads, hits := float64(pb.Loads()-l0), float64(pb.Hits()-h0)
	b.ReportMetric(nKeys/elapsed.Seconds(), "keys/s")
	b.ReportMetric(loads/nKeys, "loads/key")
	b.ReportMetric((loads+hits)/nKeys, "visits/key")
}
