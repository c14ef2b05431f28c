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

// pagedPrefetchDepth is the prefetch mailbox depth. One outstanding hint
// already overlaps the next page's read with the current page's
// accumulate; a little slack absorbs multiple concurrent streams.
const pagedPrefetchDepth = 4

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
// iterations currently reading the page, retired marks it evicted from the
// cache. A retired page recycles — the whole entry, buffer included — into
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
// LRU under a byte budget.
//
// Two mechanisms keep the steady-state read path at a bounded, constant
// allocation count and ahead of the disk:
//
//   - a page pool: chunk iterations hold a reference on the page they are
//     reading, eviction only retires a page, and the buffer recycles into
//     a bounded free list once the last reference drops. (This is why
//     chunk data must not be retained past the callback — see
//     strategy.Chunk. Row reads return copies and stay valid forever.)
//   - async readahead: a prefetcher goroutine receives the chunk
//     iterator's next-page hints and issues the file read into the LRU
//     while the current page is still being accumulated, hiding the read
//     behind the table stream.
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

	prefCh   chan int      // next-page hints from chunk iterations
	prefStop chan struct{} // closed by Close
	prefDone chan struct{} // closed by the prefetcher on exit

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
// header and size. The returned backing owns the file handle and runs a
// prefetcher goroutine until Close.
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
	p := &PagedBacking{
		f:        f,
		rows:     rows,
		lanes:    lanes,
		pageRows: pageRows,
		nPages:   (rows + pageRows - 1) / pageRows,
		budget:   budget,
		pages:    make(map[int]*pageEnt),
		prefCh:   make(chan int, pagedPrefetchDepth),
		prefStop: make(chan struct{}),
		prefDone: make(chan struct{}),
	}
	go p.prefetcher()
	return p, nil
}

// Rows returns the table's row count.
func (p *PagedBacking) Rows() int { return p.rows }

// Lanes returns the table's lane count.
func (p *PagedBacking) Lanes() int { return p.lanes }

// Loads returns the number of pages read from the file so far (cache
// misses, prefetches included). Exposed for tests and cache-sizing
// diagnostics.
func (p *PagedBacking) Loads() int64 { return p.loads.Load() }

// Hits returns the number of page lookups served from the cache.
func (p *PagedBacking) Hits() int64 { return p.hits.Load() }

// Close stops the prefetcher and releases the file handle. Callers must
// ensure no reads are in flight; rows handed out by Row remain valid (they
// are copies).
func (p *PagedBacking) Close() error {
	close(p.prefStop)
	<-p.prefDone
	return p.f.Close()
}

// prefetcher drains next-page hints, loading each still-uncached page into
// the LRU so the chunk iteration that posted the hint finds it resident.
// It drops errors on the floor deliberately: a failed readahead just means
// the demand load repeats the read and reports it with context.
func (p *PagedBacking) prefetcher() {
	defer close(p.prefDone)
	for {
		select {
		case <-p.prefStop:
			return
		case idx := <-p.prefCh:
			ent, err := p.acquirePage(idx)
			if err == nil {
				p.releasePage(ent)
			}
		}
	}
}

// hintNext posts a non-blocking prefetch hint. A full mailbox drops the
// hint — the demand load path is always correct without it.
func (p *PagedBacking) hintNext(idx int) {
	select {
	case p.prefCh <- idx:
	default:
	}
}

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
// it on a miss. The file read happens outside the cache lock, so
// concurrent misses on different pages overlap; a double load of the same
// page is benign (both copies are identical, the loser recycles).
// Callers must pair with releasePage.
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
	p.loads.Add(1)

	p.mu.Lock()
	if won, ok := p.pages[idx]; ok {
		// Lost a race with a concurrent load of the same page; use the
		// cached copy so the cache accounting stays single-entry, and
		// recycle the loser.
		won.refs++
		p.touchLocked(won)
		p.recycleLocked(ent)
		p.mu.Unlock()
		return won, nil
	}
	ent.refs = 1
	p.pages[idx] = ent
	p.pushFrontLocked(ent)
	p.resident++
	p.cached += int64(len(ent.data)) * 4
	for p.cached > p.budget && p.resident > 1 {
		old := p.lru
		p.unlinkLocked(old)
		delete(p.pages, old.idx)
		p.resident--
		p.cached -= int64(len(old.data)) * 4
		// Retire, don't free: chunk iterations may still hold references.
		// The entry recycles when the last one releases.
		old.retired = true
		if old.refs == 0 {
			p.recycleLocked(old)
		}
	}
	p.mu.Unlock()
	return ent, nil
}

// releasePage drops one reference; the last release of a retired page
// recycles it into the free list.
func (p *PagedBacking) releasePage(ent *pageEnt) {
	p.mu.Lock()
	ent.refs--
	if ent.retired && ent.refs == 0 {
		p.recycleLocked(ent)
	}
	p.mu.Unlock()
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

// chunks streams [lo, hi) page by page. Each page is referenced for
// exactly the duration of its callback (the strategy.Chunk retention
// contract), and before the callback runs, the NEXT page the iteration
// will need is hinted to the prefetcher — its file read overlaps this
// chunk's accumulate.
func (ps *pagedSource) chunks(lo, hi int, fn func(strategy.Chunk) error) error {
	p := ps.p
	for cur := lo; cur < hi; {
		idx := cur / p.pageRows
		pLo, pHi := p.pageSpan(idx)
		if pHi < hi {
			p.hintNext(idx + 1)
		}
		ent, err := p.acquirePage(idx)
		if err != nil {
			return err
		}
		end := hi
		if end > pHi {
			end = pHi
		}
		err = fn(strategy.Chunk{Row: cur, Data: ent.data[(cur-pLo)*p.lanes : (end-pLo)*p.lanes]})
		p.releasePage(ent)
		if err != nil {
			return err
		}
		cur = end
	}
	return nil
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
	p.releasePage(ent)
	return out, nil
}

func (ps *pagedSource) flat() []uint32 { return nil }
