package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"

	"gpudpf/internal/gpu"
	"gpudpf/internal/strategy"
)

// Table file format (little-endian):
//
//	offset 0:  u32 magic "GPDF"
//	offset 4:  u32 format version (1)
//	offset 8:  u32 lanes
//	offset 12: u32 reserved (0)
//	offset 16: u64 rows
//	offset 24: rows × lanes × u32 row-major lane data
//
// The format is deliberately dumb: fixed-width little-endian words, no
// compression, no index. Pages are row-aligned windows computed from the
// shape, so the file needs no page table, and a table generator can write
// it with one streaming pass.
const (
	pagedMagic       = 0x47504446 // "GPDF"
	pagedVersion     = 1
	pagedHeaderBytes = 24
)

// DefaultPageBytes is the default page size: big enough to amortize a read
// syscall and give the SIMD kernel long contiguous runs, small enough that
// a skewed workload doesn't thrash whole-table-sized pages.
const DefaultPageBytes = 256 << 10

// DefaultPageCacheBytes is the default LRU budget for OpenPaged when the
// config leaves it zero.
const DefaultPageCacheBytes = 64 << 20

// ErrPageRead marks a paged table's file read failing (the cause is wrapped
// beside it): the pass that needed the page fails, the store stays usable.
var ErrPageRead = errors.New("store: page read failed")

// pagedFreeCap bounds the recycled-buffer free list: enough to keep a
// streaming pass's evict-reload churn allocation-free, small enough that
// an idle backing doesn't sit on a second cache's worth of dead pages.
const pagedFreeCap = 16

// PagedConfig sizes a PagedBacking's cache.
type PagedConfig struct {
	// PageBytes is the nominal page size in bytes; it is rounded down to a
	// whole number of rows (minimum one row). 0 means DefaultPageBytes.
	PageBytes int
	// CacheBytes is the LRU cache budget. The cache always retains at
	// least one page so iteration makes progress under any budget.
	// 0 means DefaultPageCacheBytes.
	CacheBytes int64
}

// pageEnt is one resident (or recently evicted, still referenced) page.
// refs and retired are guarded by PagedBacking.mu: refs counts chunk
// callbacks and row copies currently reading the page, retired marks it
// evicted from the cache. A retired page recycles — the whole entry, buffer included — into
// the free list when the last reference releases, never earlier, so chunk
// callbacks always see stable data. The LRU links are intrusive (rather
// than container/list) so a steady-state miss reuses a pooled entry
// outright instead of allocating an entry and a list element per load.
type pageEnt struct {
	idx     int
	data    []uint32
	refs    int
	retired bool
	prev    *pageEnt
	next    *pageEnt
}

// PagedBacking serves a table file through a page cache: fixed-size
// row-aligned pages, demand-loaded with plain ReadAt (no mmap — the purego
// and non-amd64 builds need no platform syscalls beyond os.File), evicted
// least recently loaded or Row-read first under a byte budget.
//
// Two mechanisms keep the steady-state read path at a bounded, constant
// allocation count and off the disk where it can:
//
//   - a page pool: chunk callbacks hold a reference on the page they are
//     reading, eviction only retires a page, and the buffer recycles into
//     a bounded free list once the last reference drops. (This is why
//     chunk data must not be retained past the callback — see
//     strategy.Chunk. Row reads return copies and stay valid forever.)
//   - order-free, shared passes: a pass (Snapshot.Pass) visits its pages
//     in the order that reads the file least — pages already resident
//     first, then pages other in-flight passes have loaded meanwhile, and
//     only then a page nobody is loading, which it reads itself. A pass
//     never waits on another pass's read except at its own tail, when
//     every page it still needs is being read by someone else. Its
//     workers overlap one worker's read with another's accumulate.
//
// A PagedBacking outlives the epochs served over it: the Store layers
// delta-epoch overlays above it and never tries to reclaim it. Close when
// the serving process is done with the table.
type PagedBacking struct {
	f        *os.File
	rows     int
	lanes    int
	pageRows int
	nPages   int
	budget   int64

	mu       sync.Mutex
	pages    map[int]*pageEnt // resident pages by index
	mru, lru *pageEnt         // intrusive recency list ends
	resident int              // len(pages), tracked for the keep-one floor
	cached   int64            // bytes resident
	free     []*pageEnt       // recycled entries, buffers at full-page cap
	loading  []bool           // by page index: a pass is reading it from the file
	landed   sync.Cond        // on mu: a load finished, or a pass failed

	loads atomic.Int64 // pages read from the file (cache misses)
	hits  atomic.Int64
}

// WriteTableFile writes tab to path in the paged table format, atomically
// enough for our purposes (truncate + full write + close).
func WriteTableFile(path string, tab *strategy.Table) error {
	if tab == nil {
		return fmt.Errorf("store: cannot write a nil table")
	}
	return WriteTableFileRows(path, tab.NumRows, tab.Lanes, func(i int, dst []uint32) {
		copy(dst, tab.Row(i))
	})
}

// WriteTableFileRows streams a rows×lanes table to path in the paged table
// format, calling fill once per row (in order) to produce its lanes. It
// never materializes the table: a shard node can write a full-shape file
// holding only its row range without ever allocating rows×lanes words.
func WriteTableFileRows(path string, rows, lanes int, fill func(row int, dst []uint32)) error {
	if _, err := checkShape(rows, lanes); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var hdr [pagedHeaderBytes]byte
	binary.LittleEndian.PutUint32(hdr[0:], pagedMagic)
	binary.LittleEndian.PutUint32(hdr[4:], pagedVersion)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(lanes))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(rows))
	if _, err := w.Write(hdr[:]); err != nil {
		f.Close()
		return err
	}
	row := make([]uint32, lanes)
	enc := make([]byte, lanes*4)
	for i := 0; i < rows; i++ {
		fill(i, row)
		for l, v := range row {
			binary.LittleEndian.PutUint32(enc[l*4:], v)
		}
		if _, err := w.Write(enc); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// OpenPaged opens a table file written by WriteTableFile, validating the
// header and size. The returned backing owns the file handle until Close.
func OpenPaged(path string, cfg PagedConfig) (*PagedBacking, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	var hdr [pagedHeaderBytes]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: %s: short table file header: %w", path, err)
	}
	if m := binary.LittleEndian.Uint32(hdr[0:]); m != pagedMagic {
		f.Close()
		return nil, fmt.Errorf("store: %s is not a table file (magic %#x)", path, m)
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != pagedVersion {
		f.Close()
		return nil, fmt.Errorf("store: %s: unsupported table file version %d", path, v)
	}
	lanes := int(binary.LittleEndian.Uint32(hdr[8:]))
	rows64 := binary.LittleEndian.Uint64(hdr[16:])
	if rows64 > uint64(1)<<62 {
		f.Close()
		return nil, fmt.Errorf("store: %s: absurd row count %d", path, rows64)
	}
	rows := int(rows64)
	words, err := checkShape(rows, lanes)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("store: %s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if want := int64(pagedHeaderBytes) + int64(words)*4; st.Size() != want {
		f.Close()
		return nil, fmt.Errorf("store: %s: file is %d bytes, shape %d×%d needs %d", path, st.Size(), rows, lanes, want)
	}

	pageBytes := cfg.PageBytes
	if pageBytes <= 0 {
		pageBytes = DefaultPageBytes
	}
	pageRows := pageBytes / (4 * lanes)
	if pageRows < 1 {
		pageRows = 1
	}
	if pageRows > rows {
		pageRows = rows
	}
	budget := cfg.CacheBytes
	if budget <= 0 {
		budget = DefaultPageCacheBytes
	}
	nPages := (rows + pageRows - 1) / pageRows
	p := &PagedBacking{
		f:        f,
		rows:     rows,
		lanes:    lanes,
		pageRows: pageRows,
		nPages:   nPages,
		budget:   budget,
		pages:    make(map[int]*pageEnt),
		loading:  make([]bool, nPages),
	}
	p.landed.L = &p.mu
	return p, nil
}

// Rows returns the table's row count.
func (p *PagedBacking) Rows() int { return p.rows }

// Lanes returns the table's lane count.
func (p *PagedBacking) Lanes() int { return p.lanes }

// Loads returns the number of pages read from the file so far (cache
// misses). Exposed for tests and cache-sizing diagnostics.
func (p *PagedBacking) Loads() int64 { return p.loads.Load() }

// Hits returns the number of pages served from the cache: once per page a
// pass takes resident, once per Row read that finds its page resident.
func (p *PagedBacking) Hits() int64 { return p.hits.Load() }

// Close releases the file handle. Callers must ensure no reads are in
// flight; rows handed out by Row remain valid (they are copies).
func (p *PagedBacking) Close() error { return p.f.Close() }

// pageSpan returns page idx's row range [lo, hi).
func (p *PagedBacking) pageSpan(idx int) (lo, hi int) {
	lo = idx * p.pageRows
	hi = lo + p.pageRows
	if hi > p.rows {
		hi = p.rows
	}
	return lo, hi
}

// pushFrontLocked links ent at the MRU end (caller holds mu).
func (p *PagedBacking) pushFrontLocked(ent *pageEnt) {
	ent.prev = nil
	ent.next = p.mru
	if p.mru != nil {
		p.mru.prev = ent
	}
	p.mru = ent
	if p.lru == nil {
		p.lru = ent
	}
}

// unlinkLocked removes ent from the recency list (caller holds mu).
func (p *PagedBacking) unlinkLocked(ent *pageEnt) {
	if ent.prev != nil {
		ent.prev.next = ent.next
	} else {
		p.mru = ent.next
	}
	if ent.next != nil {
		ent.next.prev = ent.prev
	} else {
		p.lru = ent.prev
	}
	ent.prev, ent.next = nil, nil
}

// touchLocked moves a resident ent to the MRU end (caller holds mu).
func (p *PagedBacking) touchLocked(ent *pageEnt) {
	if p.mru == ent {
		return
	}
	p.unlinkLocked(ent)
	p.pushFrontLocked(ent)
}

// acquirePage returns page idx with a reference held, loading and caching
// it on a miss — the Row path, which reads one page outside any pass.
// Callers must pair with releaseLocked.
func (p *PagedBacking) acquirePage(idx int) (*pageEnt, error) {
	p.mu.Lock()
	if ent, ok := p.pages[idx]; ok {
		ent.refs++
		p.touchLocked(ent)
		p.mu.Unlock()
		p.hits.Add(1)
		return ent, nil
	}
	p.mu.Unlock()

	ent, err := p.loadPage(idx)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	ent = p.insertLocked(ent)
	p.mu.Unlock()
	return ent, nil
}

// insertLocked caches a freshly read page, evicting down to the budget, and
// returns it with a reference held (caller holds mu). The file read
// happened outside the lock, so a Row read and a pass can both have read
// the page; the loser recycles and the cached copy is returned, keeping
// the cache single-entry.
func (p *PagedBacking) insertLocked(ent *pageEnt) *pageEnt {
	p.loads.Add(1)
	if won, ok := p.pages[ent.idx]; ok {
		won.refs++
		p.touchLocked(won)
		p.recycleLocked(ent)
		return won
	}
	ent.refs = 1
	p.pages[ent.idx] = ent
	p.pushFrontLocked(ent)
	p.resident++
	p.cached += int64(len(ent.data)) * 4
	for p.cached > p.budget && p.resident > 1 {
		old := p.lru
		p.unlinkLocked(old)
		delete(p.pages, old.idx)
		p.resident--
		p.cached -= int64(len(old.data)) * 4
		// Retire, don't free: chunk callbacks may still hold references.
		// The entry recycles when the last one releases.
		old.retired = true
		if old.refs == 0 {
			p.recycleLocked(old)
		}
	}
	return ent
}

// releaseLocked drops one reference (caller holds mu); the last release
// of a retired page recycles it into the free list.
func (p *PagedBacking) releaseLocked(ent *pageEnt) {
	ent.refs--
	if ent.retired && ent.refs == 0 {
		p.recycleLocked(ent)
	}
}

// recycleLocked returns an entry to the free list (caller holds mu).
// Every buffer is allocated at full-page capacity, so any recycled entry
// can back any page. Beyond the cap the entry drops to the GC.
func (p *PagedBacking) recycleLocked(ent *pageEnt) {
	if len(p.free) < pagedFreeCap {
		ent.refs, ent.retired = 0, false
		p.free = append(p.free, ent)
	}
}

// loadPage reads page idx from the file into a pooled (or fresh) entry.
// On little-endian hosts the file bytes land directly in the word buffer's
// memory — no staging copy, no per-word decode; other hosts stage through
// a byte buffer and decode. In steady state this path allocates nothing:
// the free list supplies the entry, and ReadAt fills it in place.
func (p *PagedBacking) loadPage(idx int) (*pageEnt, error) {
	lo, hi := p.pageSpan(idx)
	words := (hi - lo) * p.lanes

	p.mu.Lock()
	var ent *pageEnt
	if n := len(p.free); n > 0 {
		ent = p.free[n-1]
		p.free = p.free[:n-1]
	}
	p.mu.Unlock()
	if ent == nil {
		ent = &pageEnt{data: make([]uint32, words, p.pageRows*p.lanes)}
	}
	ent.idx = idx
	ent.data = ent.data[:words]

	off := int64(pagedHeaderBytes) + int64(lo)*int64(p.lanes)*4
	var err error
	if hostLittleEndian {
		_, err = p.f.ReadAt(wordsAsBytes(ent.data), off)
	} else {
		raw := make([]byte, words*4)
		if _, err = p.f.ReadAt(raw, off); err == nil {
			for i := range ent.data {
				ent.data[i] = binary.LittleEndian.Uint32(raw[i*4:])
			}
		}
	}
	if err != nil {
		// The buffer goes back to the free list: a failing file must not
		// turn every miss into a fresh page-sized allocation.
		p.mu.Lock()
		p.recycleLocked(ent)
		p.mu.Unlock()
		return nil, fmt.Errorf("%w: page %d (rows [%d,%d)): %w", ErrPageRead, idx, lo, hi, err)
	}
	return ent, nil
}

// pagedSource adapts a PagedBacking to the backing source interface.
type pagedSource struct {
	p *PagedBacking
}

// pagedPass is one pass's claim state: which pages of [first, first+
// len(taken)) it has taken — visited, or being read by one of its own
// workers. Every field but the immutable range and callback is guarded by
// PagedBacking.mu. Passes are pooled, so a steady-state pass allocates
// nothing of its own.
type pagedPass struct {
	lo, hi int
	first  int
	taken  []bool
	next   int // no page below first+next is untaken
	fn     func(int, strategy.Chunk) error
	err    error
}

var pagedPassPool = sync.Pool{New: func() any { return new(pagedPass) }}

// pass visits every page overlapping [lo, hi) exactly once on up to
// workers goroutines (see the PagedBacking comment for the order). Each
// page is referenced for exactly the duration of its callback (the
// strategy.Chunk retention contract). The first error — a file read's or
// fn's — stops every worker at its next page and wakes any waiting at the
// tail; pass returns it once all have returned.
func (ps *pagedSource) pass(lo, hi, workers int, fn func(int, strategy.Chunk) error) error {
	if lo == hi {
		return nil
	}
	p := ps.p
	pp := pagedPassPool.Get().(*pagedPass)
	first, last := lo/p.pageRows, (hi-1)/p.pageRows
	n := last - first + 1
	if cap(pp.taken) < n {
		pp.taken = make([]bool, n)
	}
	pp.taken = pp.taken[:n]
	clear(pp.taken)
	pp.lo, pp.hi, pp.first, pp.next, pp.fn, pp.err = lo, hi, first, 0, fn, nil
	if workers = min(workers, n); workers <= 1 {
		p.work(pp, 0)
	} else {
		gpu.ParallelForN(workers, workers, func(w int) { p.work(pp, w) })
	}
	err := pp.err
	pp.fn = nil
	pagedPassPool.Put(pp)
	return err
}

// work is one worker of pass pp: it takes pages until the pass has none
// left or has failed.
func (p *PagedBacking) work(pp *pagedPass, w int) {
	p.mu.Lock()
	for {
		ent, load := p.takeLocked(pp)
		if ent == nil && load < 0 {
			p.mu.Unlock()
			return
		}
		var err error
		if ent == nil {
			p.mu.Unlock()
			ent, err = p.loadPage(load)
			p.mu.Lock()
			p.loading[load] = false
			if err == nil {
				ent = p.insertLocked(ent)
			}
			p.landed.Broadcast()
		}
		if err == nil {
			p.mu.Unlock()
			pLo, pHi := p.pageSpan(ent.idx)
			cLo, cHi := max(pp.lo, pLo), min(pp.hi, pHi)
			err = pp.fn(w, strategy.Chunk{Row: cLo, Data: ent.data[(cLo-pLo)*p.lanes : (cHi-pLo)*p.lanes]})
			p.mu.Lock()
			p.releaseLocked(ent)
		}
		if err != nil && pp.err == nil {
			pp.err = err
			p.landed.Broadcast()
		}
	}
}

// takeLocked picks pass pp's next page (caller holds mu, which it may wait
// on): a resident page the pass has not taken, oldest first, returned with
// a reference held; else the lowest untaken page nobody is reading, marked
// loading and returned as load; else — every page the pass still needs is
// being read by another pass — it waits for a load to land and retries.
// (nil, -1) means the pass is done: every page is taken, or it has failed.
// A pass's hit leaves the page's recency alone, so eviction follows load
// order: the page a pass takes first is the next to be evicted, and one
// that every in-flight pass has used is not kept alive by the last of them.
func (p *PagedBacking) takeLocked(pp *pagedPass) (ent *pageEnt, load int) {
	for pp.err == nil {
		for pp.next < len(pp.taken) && pp.taken[pp.next] {
			pp.next++
		}
		if pp.next == len(pp.taken) {
			break
		}
		for e := p.lru; e != nil; e = e.prev {
			if i := e.idx - pp.first; i >= pp.next && i < len(pp.taken) && !pp.taken[i] {
				pp.taken[i] = true
				e.refs++
				p.hits.Add(1)
				return e, -1
			}
		}
		for i := pp.next; i < len(pp.taken); i++ {
			if !pp.taken[i] && !p.loading[pp.first+i] {
				pp.taken[i] = true
				p.loading[pp.first+i] = true
				return nil, pp.first + i
			}
		}
		p.landed.Wait()
	}
	return nil, -1
}

// row returns a copy of row i (copies stay valid forever, so Snapshot.Row's
// release-independent lifetime holds even though page buffers recycle).
func (ps *pagedSource) row(i int) ([]uint32, error) {
	p := ps.p
	ent, err := p.acquirePage(i / p.pageRows)
	if err != nil {
		return nil, err
	}
	lo, _ := p.pageSpan(i / p.pageRows)
	out := make([]uint32, p.lanes)
	copy(out, ent.data[(i-lo)*p.lanes:(i-lo+1)*p.lanes])
	p.mu.Lock()
	p.releaseLocked(ent)
	p.mu.Unlock()
	return out, nil
}

func (ps *pagedSource) flat() []uint32 { return nil }
