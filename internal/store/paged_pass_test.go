package store

import (
	"errors"
	"io"
	mathrand "math/rand"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gpudpf/internal/dpf"
	"gpudpf/internal/gpu"
	"gpudpf/internal/strategy"
)

// TestPagedPassTakesResidentPagesFirst: a pass reads the file only for the
// pages it does not find resident. Through a cache a quarter of the table,
// two back-to-back one-worker passes load 256 pages and then 192 — the 64
// the first pass left resident are the second's first 64 chunks, not the
// first pages its tail evicts (an ascending pass through an LRU loads all
// 256 every time). Hits counts each page once per pass, also over a
// delta-epoch overlay whose patched rows cut pages into several chunks.
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
	// Patched runs inside pages, across a page edge and at the table's
	// ends split pages into several chunks; each page still counts once.
	var writes []RowWrite
	for _, r := range []int{0, 5, 63, 64, 65, 1000, 1001, 9000, rows - 1} {
		writes = append(writes, RowWrite{Row: uint64(r), Vals: row(uint32(r), 1, 2, 3)})
	}
	if _, err := s.Apply(writes); err != nil {
		t.Fatal(err)
	}
	if l, h := pass(applyWords(tab.Data, lanes, writes)); l != 192 || h != 64 {
		t.Fatalf("pass over an overlay: %d loads, %d hits; want 192 loads, 64 hits", l, h)
	}
}

// pagedPassCase is one drawn shape of TestPagedOrderFreePass.
type pagedPassCase struct {
	rows, lanes, pageRows, cachePages int
	lo, hi, workers                   int
	depth                             int // overlay layers above the paged root
}

// drawPagedPassCase draws a table shape, page size, cache budget (from one
// page to the whole table), range, worker count and overlay depth.
func drawPagedPassCase(rng *rand.Rand) pagedPassCase {
	var c pagedPassCase
	c.rows = 1 + rng.IntN(3000)
	c.lanes = 1 + rng.IntN(9)
	c.pageRows = 1 + rng.IntN(200)
	pages := (c.rows + c.pageRows - 1) / c.pageRows
	c.cachePages = 1 + rng.IntN(pages)
	c.lo = rng.IntN(c.rows + 1)
	c.hi = c.lo + rng.IntN(c.rows-c.lo+1)
	if rng.IntN(4) == 0 {
		c.lo, c.hi = 0, c.rows
	}
	c.workers = []int{1, 2, 3, 8}[rng.IntN(4)]
	c.depth = rng.IntN(5)
	return c
}

// openPagedCase writes the case's table, opens it through the case's cache
// and layers c.depth update batches over it, each a few runs of patched
// rows straddling page edges. It returns the store and the words every
// read must see.
func openPagedCase(t *testing.T, rng *rand.Rand, c pagedPassCase) (*Store, *PagedBacking, []uint32) {
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
	want := tab.Data
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
		want = applyWords(want, c.lanes, writes)
	}
	if got := s.ChainDepth(); got != c.depth {
		t.Fatalf("chain depth %d, want %d", got, c.depth)
	}
	return s, pb, want
}

// checkPass runs one Pass over [c.lo, c.hi) and reports (with t.Error, so
// it may run off the test goroutine) any row visited other than exactly
// once, any chunk whose data differs from want, a worker index out of
// range, or two calls on one worker index overlapping.
func checkPass(t *testing.T, sn *Snapshot, c pagedPassCase, want []uint32) {
	visits := make([]atomic.Int32, c.hi-c.lo)
	busy := make([]atomic.Bool, c.workers)
	err := sn.Pass(c.lo, c.hi, c.workers, func(w int, ch strategy.Chunk) error {
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

// TestPagedOrderFreePass is the seeded property test of the paged pass:
// over drawn shapes, page sizes, cache budgets, ranges, worker counts
// {1, 2, 3, 8} and overlay chains of depth 0–4 whose patched runs straddle
// page edges, every row of the range is visited exactly once with the
// expected data — alone and with two passes in flight — and the answers
// are bit-identical to the in-RAM view's. Then the file is cut short: two
// concurrent passes both end with ErrPageRead, every worker returns (none
// is left waiting on a load at its tail), no goroutine outlives them, and
// every page reference is released.
func TestPagedOrderFreePass(t *testing.T) {
	rng := rand.New(rand.NewPCG(2029, 29))
	prg := dpf.NewAESPRG()
	for trial := 0; trial < 100; trial++ {
		c := drawPagedPassCase(rng)
		s, pb, want := openPagedCase(t, rng, c)
		sn := s.Acquire()
		checkPass(t, sn, c, want)
		var wg sync.WaitGroup
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				checkPass(t, sn, c, want)
			}()
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}

		ram := &strategy.Table{NumRows: c.rows, Lanes: c.lanes, Data: want}
		keyRng := mathrand.New(mathrand.NewSource(int64(rng.Uint64())))
		var keys []*dpf.Key
		for q := 0; q < 3; q++ {
			k0, _, err := dpf.Gen(prg, uint64(keyRng.Intn(c.rows)), ram.Bits(), []uint32{1}, keyRng)
			if err != nil {
				t.Fatal(err)
			}
			keys = append(keys, &k0)
		}
		st := strategy.MemBoundTree{K: 8, Fused: true, Workers: c.workers}
		var ctr gpu.Counters
		ref, err := strategy.RunRange(st, prg, keys, ram.View(), c.lo, c.hi, &ctr)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var ctr gpu.Counters
				got, err := strategy.RunRange(st, prg, keys, sn, c.lo, c.hi, &ctr)
				if err != nil {
					t.Errorf("%+v: paged run: %v", c, err)
					return
				}
				for q := range ref {
					for l := range ref[q] {
						if got[q][l] != ref[q][l] {
							t.Errorf("%+v: q=%d lane=%d: paged %d != in-RAM %d", c, q, l, got[q][l], ref[q][l])
							return
						}
					}
				}
			}()
		}
		wg.Wait()
		sn.Release()
		if t.Failed() {
			t.FailNow()
		}
		if trial%4 == 0 {
			checkCutFile(t, s, pb, c)
		}
	}
}

// checkCutFile cuts the case's table file short after its header and runs
// two whole-table passes at once on c.workers workers each; see
// TestPagedOrderFreePass.
func checkCutFile(t *testing.T, s *Store, pb *PagedBacking, c pagedPassCase) {
	t.Helper()
	if err := os.Truncate(pb.f.Name(), pagedHeaderBytes); err != nil {
		t.Fatal(err)
	}
	sn := s.Acquire()
	defer sn.Release()
	pb.mu.Lock()
	// A cache that holds the whole table serves both passes without a read.
	allResident := len(pb.pages) == pb.nPages
	pb.mu.Unlock()
	base := runtime.NumGoroutine()
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = sn.Pass(0, c.rows, c.workers, func(int, strategy.Chunk) error { return nil })
		}()
	}
	wg.Wait()
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
}
