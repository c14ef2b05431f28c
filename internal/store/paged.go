package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
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

// DefaultPageCacheBytes is the default cache budget for OpenPaged when the
// config leaves it zero.
const DefaultPageCacheBytes = 64 << 20

// ErrPageRead marks a paged table's file read failing (the cause is wrapped
// beside it): the pass or write that needed the page fails, the store
// stays usable.
var ErrPageRead = errors.New("store: page read failed")

// ErrPageWrite marks a written page failing to reach the scratch file (the
// cause is wrapped beside it): the batch fails, the store keeps its epoch.
var ErrPageWrite = errors.New("store: page write failed")

// pagedFreeCap bounds the recycled-buffer free list: enough to keep a
// streaming pass's evict-reload churn allocation-free, small enough that
// an idle backing doesn't sit on a second cache's worth of dead pages.
const pagedFreeCap = 16

// PagedConfig sizes a PagedBacking's cache.
type PagedConfig struct {
	// PageBytes is the nominal page size in bytes; it is rounded down to a
	// whole number of rows (minimum one row). 0 means DefaultPageBytes.
	PageBytes int
	// CacheBytes is the cache budget. A scan read that finds the cache
	// full streams through it instead of displacing a resident page (see
	// PagedBacking); a written page or a Row read evicts the least
	// recently loaded one. The cache always retains at least one page so
	// iteration makes progress under any budget. 0 means
	// DefaultPageCacheBytes.
	CacheBytes int64
}

// pageEnt is one resident (or recently evicted, still referenced) page
// version: page idx's content in slot ver. refs and retired are guarded by
// PagedBacking.mu: refs counts chunk callbacks and row copies currently
// reading the page, retired marks it evicted from the cache. A retired
// entry recycles, buffer included, into the free list when the last
// reference releases, never earlier, so chunk callbacks always see stable
// data. The LRU links are intrusive so a steady-state miss reuses a pooled
// entry outright instead of allocating an entry and a list element.
type pageEnt struct {
	idx     int
	ver     int
	data    []uint32
	refs    int
	retired bool
	prev    *pageEnt
	next    *pageEnt
}

// PagedBacking serves a table file through a page cache: fixed-size
// row-aligned pages, demand-loaded with plain ReadAt (no mmap — the purego
// and non-amd64 builds need no platform syscalls beyond os.File), under a
// byte budget.
//
// Three mechanisms keep the steady-state read path at a bounded, constant
// allocation count, off the disk and in the CPU's caches where they can:
//
//   - a page pool: chunk callbacks hold a reference on the page they are
//     reading, eviction only retires a page, and the buffer recycles into
//     a bounded free list once the last reference drops. (This is why
//     chunk data must not be retained past the callback — see
//     strategy.Chunk. Row reads return copies and stay valid forever.)
//   - one cooperative scan per backing (Zukowski et al., "Cooperative
//     Scans", VLDB 2007): a pass (Snapshot.Pass) that starts while others
//     are streaming the table joins them. Worker index w is a slot that
//     one goroutine holds at a time; the holder takes a page — resident
//     before read, the oldest pass's needs first — and feeds it to every
//     in-flight pass that still needs it and whose budget exceeds w, back
//     to back while the page is hot in that core's cache, before it
//     releases it. A joined pass's own workers park until older passes
//     hand their slots on. No holder waits on another's read except at
//     its own pass's tail, when every page the pass still needs is being
//     read by another slot; one slot's read overlaps another's
//     accumulate. A pass's callback may so run on another pass's
//     goroutine: it must not wait on its own caller, nor start a pass over
//     the same table (its worker would park on a slot its caller holds).
//   - a streaming rule for full caches (the MRU rule of DBMIN, Chou and
//     DeWitt, VLDB 1985, for a loop over more pages than the cache
//     holds): a page the scan reads while the cache is full is fed to its
//     riders and recycled at once instead of displacing a resident page.
//     The pages that filled the cache stay hits on every pass, and the
//     next read lands in the buffer the scan released one or two pages
//     ago, still in L2 (on a 2-vCPU host with nothing else running, a
//     256 KiB pread of a cached file took a median 10.4 µs into one reused
//     buffer and 16.1 µs round a ring of 64). The released buffer goes
//     back through the LIFO free list: a buffer kept per scan slot
//     measured the same. Written pages and Row reads still join the cache
//     and evict the least recently loaded page: the next pass at a new
//     epoch needs its written pages, and a Row read is rare.
//
// It is also the paged Store's root: version slot i below the page count
// is the table file's page i, which is never rewritten, and written pages
// go to slots of one scratch file beside it (unlinked once open; writes are
// not durable). The cache is keyed by slot, so passes at different epochs
// share every page neither rewrote, and a slot no epoch maps leaves it at
// once. Close when the serving process is done with the table.
type PagedBacking struct {
	f        *os.File
	rows     int
	lanes    int
	pageRows int
	nPages   int
	budget   int64

	versions             // the Store's, guarded by its mu
	scratch     *os.File // written versions; nil before the first write
	scratchName string   // set where the OS would not unlink it open: removed at Close

	mu       sync.Mutex
	pages    map[int]*pageEnt // resident versions by slot
	mru, lru *pageEnt         // intrusive recency list ends
	resident int              // len(pages), tracked for the keep-one floor
	cached   int64            // bytes resident
	free     []*pageEnt       // recycled entries, buffers at full-page cap
	loading  []bool           // by version slot: a scan slot holder is reading it
	passes   []*pagedPass     // the scan's in-flight passes, oldest first
	slots    []*pagedSlot     // the scan's worker slots, by index
	landed   sync.Cond        // on mu: a read landed, a pass joined or failed
	rowReads int              // Row reads in flight
	closed   bool             // Close has begun: no new pass or Row read
	idle     sync.Cond        // on mu: a pass or a Row read ended

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
	pageRows := pageRowsFor(pageBytes, rows, lanes)
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
		versions: versions{refs: make([]int32, nPages)},
	}
	p.landed.L = &p.mu
	p.idle.L = &p.mu
	return p, nil
}

// Rows returns the table's row count.
func (p *PagedBacking) Rows() int { return p.rows }

// Lanes returns the table's lane count.
func (p *PagedBacking) Lanes() int { return p.lanes }

// Loads returns the number of pages read from the file so far (cache
// misses): once per read, however many passes ride the page. Exposed for
// tests and cache-sizing diagnostics.
func (p *PagedBacking) Loads() int64 { return p.loads.Load() }

// Hits returns the number of pages served from the cache: once per
// resident page a scan slot takes, however many passes ride it, and once
// per Row read that finds its page resident. Loads plus the passes' share
// of Hits is the scan's page visits.
func (p *PagedBacking) Hits() int64 { return p.hits.Load() }

// Close waits for the passes and Row reads in flight, then releases the
// files; later passes and Row reads fail with an error wrapping
// os.ErrClosed. Rows handed out by Row remain valid (they are copies).
func (p *PagedBacking) Close() error {
	p.mu.Lock()
	p.closed = true
	for len(p.passes) > 0 || p.rowReads > 0 {
		p.idle.Wait()
	}
	p.mu.Unlock()
	err := p.f.Close()
	if p.scratch != nil {
		err = errors.Join(err, p.scratch.Close())
	}
	if p.scratchName != "" {
		err = errors.Join(err, os.Remove(p.scratchName))
	}
	return err
}

// closedErr is the error of a pass or Row read begun after Close.
func (p *PagedBacking) closedErr() error {
	return fmt.Errorf("store: paged table %s: %w", p.f.Name(), os.ErrClosed)
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

// demoteLocked moves a resident ent to the LRU end, the next to be evicted
// (caller holds mu).
func (p *PagedBacking) demoteLocked(ent *pageEnt) {
	if p.lru == ent {
		return
	}
	p.unlinkLocked(ent)
	ent.prev = p.lru
	p.lru.next = ent
	p.lru = ent
}

// acquirePage returns version ver of page idx with a reference held,
// loading and caching it on a miss — the Row path. Callers must pair with
// releaseLocked.
func (p *PagedBacking) acquirePage(idx, ver int) (*pageEnt, error) {
	p.mu.Lock()
	if ent, ok := p.pages[ver]; ok {
		ent.refs++
		p.touchLocked(ent)
		p.mu.Unlock()
		p.hits.Add(1)
		return ent, nil
	}
	p.mu.Unlock()

	ent, err := p.loadPage(idx, ver, true)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	p.loads.Add(1)
	ent = p.insertLocked(ent, false)
	p.mu.Unlock()
	return ent, nil
}

// insertLocked caches a freshly read or written page, evicting down to the
// budget, and returns it with a reference held (caller holds mu). A scan
// read (stream) that finds no room for the page is not cached: it is
// returned retired, so its last release recycles it. A file read happens
// outside the lock, so a Row read and a pass can both have read the page;
// the loser recycles and the cached copy is returned, keeping the cache
// single-entry.
func (p *PagedBacking) insertLocked(ent *pageEnt, stream bool) *pageEnt {
	if won, ok := p.pages[ent.ver]; ok {
		won.refs++
		p.touchLocked(won)
		p.recycleLocked(ent)
		return won
	}
	ent.refs = 1
	if stream && p.resident > 0 && p.cached+int64(len(ent.data))*4 > p.budget {
		ent.retired = true
		return ent
	}
	p.pages[ent.ver] = ent
	p.pushFrontLocked(ent)
	p.resident++
	p.cached += int64(len(ent.data)) * 4
	for p.cached > p.budget && p.resident > 1 {
		p.evictLocked(p.lru)
	}
	return ent
}

// evictLocked drops a resident entry from the cache (caller holds mu). It
// retires rather than frees it: chunk callbacks may still hold references,
// and the entry recycles when the last one releases.
func (p *PagedBacking) evictLocked(ent *pageEnt) {
	p.unlinkLocked(ent)
	delete(p.pages, ent.ver)
	p.resident--
	p.cached -= int64(len(ent.data)) * 4
	ent.retired = true
	if ent.refs == 0 {
		p.recycleLocked(ent)
	}
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

// at returns the file holding version slot ver and its byte offset.
func (p *PagedBacking) at(ver int) (*os.File, int64) {
	pageBytes := int64(p.pageRows) * int64(p.lanes) * 4
	if ver < p.nPages {
		return p.f, pagedHeaderBytes + int64(ver)*pageBytes
	}
	return p.scratch, int64(ver-p.nPages) * pageBytes
}

// loadPage reads version ver of page idx into a pooled (or fresh) entry,
// or with read unset only sizes the entry for a caller that fills it whole.
// On little-endian hosts the file bytes land directly in the word buffer's
// memory — no staging copy, no per-word decode; other hosts stage through
// a byte buffer and decode. In steady state this path allocates nothing:
// the free list supplies the entry, and ReadAt fills it in place.
func (p *PagedBacking) loadPage(idx, ver int, read bool) (*pageEnt, error) {
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
	ent.idx, ent.ver = idx, ver
	ent.data = ent.data[:words]
	if !read {
		return ent, nil
	}

	f, off := p.at(ver)
	var err error
	if hostLittleEndian {
		_, err = f.ReadAt(wordsAsBytes(ent.data), off)
	} else {
		raw := make([]byte, words*4)
		if _, err = f.ReadAt(raw, off); err == nil {
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

func (p *PagedBacking) vers() *versions { return &p.versions }

// write copies version from of page idx unless fill covers it — from the
// cache when it is resident, pinned while it is copied, else from its
// file — patches it, and writes it to a free scratch slot or one appended
// to the scratch file, which the first write creates. The written page
// stays cached under its new slot, so the next pass at the new epoch finds
// it resident.
func (p *PagedBacking) write(idx, from int, cover bool, fill func(int, []uint32)) (int, error) {
	if p.scratch == nil {
		f, err := os.CreateTemp(filepath.Dir(p.f.Name()), filepath.Base(p.f.Name())+".scratch-*")
		if err != nil {
			return 0, fmt.Errorf("%w: %w", ErrPageWrite, err)
		}
		if os.Remove(f.Name()) != nil {
			p.scratchName = f.Name() // where an open file cannot be unlinked: Close removes it
		}
		p.scratch = f
	}
	ent, err := p.copyPage(idx, from, cover)
	if err != nil {
		return 0, err
	}
	fill(idx, ent.data)
	to := p.take()
	p.mu.Lock()
	if to < 0 {
		to = len(p.refs)
		p.refs = append(p.refs, 0)
		p.loading = append(p.loading, false)
	}
	p.mu.Unlock()
	var raw []byte
	if hostLittleEndian {
		raw = wordsAsBytes(ent.data)
	} else {
		for _, w := range ent.data {
			raw = binary.LittleEndian.AppendUint32(raw, w)
		}
	}
	f, off := p.at(to)
	_, err = f.WriteAt(raw, off)
	p.mu.Lock()
	if err != nil {
		p.recycleLocked(ent)
	} else {
		ent.ver = to
		p.releaseLocked(p.insertLocked(ent, false))
	}
	p.mu.Unlock()
	if err != nil {
		p.spare = append(p.spare, int32(to))
		return 0, fmt.Errorf("%w: page %d to scratch slot %d: %w", ErrPageWrite, idx, to-p.nPages, err)
	}
	return to, nil
}

// copyPage returns a pooled entry holding version from of page idx: copied
// from the cache when it is resident (a reference pins it while it is
// copied), read from its file otherwise, and left unfilled when cover says
// the caller overwrites it whole. A resident version from is superseded:
// it moves to the LRU end, so the written version's insertion evicts it
// rather than a page the new epoch still reads.
func (p *PagedBacking) copyPage(idx, from int, cover bool) (*pageEnt, error) {
	var src *pageEnt
	p.mu.Lock()
	if old := p.pages[from]; old != nil {
		p.demoteLocked(old)
		if !cover {
			src = old
			src.refs++
		}
	}
	p.mu.Unlock()
	ent, err := p.loadPage(idx, from, !cover && src == nil)
	if src != nil {
		copy(ent.data, src.data) // an unread load cannot fail
		p.mu.Lock()
		p.releaseLocked(src)
		p.mu.Unlock()
	}
	return ent, err
}

// drop takes back a slot no epoch maps: it leaves the cache at once, and a
// scratch slot is free for the next write.
func (p *PagedBacking) drop(ver int) {
	p.mu.Lock()
	if ent, ok := p.pages[ver]; ok {
		p.evictLocked(ent)
	}
	p.mu.Unlock()
	if ver >= p.nPages {
		p.spare = append(p.spare, int32(ver))
	}
}

// pagedPass is one in-flight pass of the backing's scan: which pages of
// [first, first+len(taken)) have been taken for it — handed to a slot
// holder that will feed the page, in the version its page table tab maps,
// to fn. Every field but the immutable range, budget, table and callback
// is guarded by PagedBacking.mu; failed mirrors err != nil for holders
// that run callbacks outside the lock. Passes are pooled, so a
// steady-state pass allocates nothing of its own.
type pagedPass struct {
	lo, hi int
	first  int
	budget int // the caller's worker budget: slots below it may run fn
	tab    []int32
	taken  []bool
	next   int // no page below first+next is untaken
	left   int // pages not yet taken
	busy   int // pages taken whose callback has not returned
	fn     func(int, strategy.Chunk) error
	err    error
	failed atomic.Bool
	own    sync.WaitGroup // the pass's own goroutines past its caller's
	moved  sync.Cond      // on PagedBacking.mu: a slot freed, or the pass finished or failed
}

var pagedPassPool = sync.Pool{New: func() any { return new(pagedPass) }}

// pagedSlot is one worker index of the backing's scan. At most one
// goroutine holds it at a time, and only the holder calls a pass's fn with
// that index, which is what keeps calls with one w from overlapping when
// several passes share the slot. riders and errs are the holder's scratch
// for the page it holds: the passes it feeds, oldest first, and what each
// callback returned.
type pagedSlot struct {
	held   bool
	riders []*pagedPass
	errs   []error
}

// pass visits every page overlapping [lo, hi) exactly once on up to
// workers slots of the backing's scan (see the PagedBacking comment). The
// caller's goroutine is the pass's worker 0 and starts the others; a
// worker whose slot another pass holds parks until it is free, meanwhile
// riding that holder's pages. Each page is referenced for exactly the
// duration of the callbacks it is fed to (the strategy.Chunk retention
// contract). The pass's first error — a file read's or fn's — stops it at
// its next page; pass returns once its own workers have and no slot
// holder is still inside its callback.
func (p *PagedBacking) pass(t *pageTable, lo, hi, workers int, fn func(int, strategy.Chunk) error) error {
	if lo == hi {
		return nil
	}
	pp := pagedPassPool.Get().(*pagedPass)
	pp.moved.L = &p.mu
	first, last := lo/p.pageRows, (hi-1)/p.pageRows
	n := last - first + 1
	if cap(pp.taken) < n {
		pp.taken = make([]bool, n)
	}
	pp.taken = pp.taken[:n]
	clear(pp.taken)
	pp.lo, pp.hi, pp.first, pp.budget, pp.tab, pp.fn = lo, hi, first, workers, t.slot, fn
	pp.next, pp.left, pp.busy, pp.err = 0, n, 0, nil
	pp.failed.Store(false)
	own := min(workers, n)

	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		pp.tab, pp.fn = nil, nil
		pagedPassPool.Put(pp)
		return p.closedErr()
	}
	for len(p.slots) < own {
		p.slots = append(p.slots, new(pagedSlot))
	}
	p.passes = append(p.passes, pp)
	p.landed.Broadcast() // a holder waiting at its tail may serve this pass
	p.mu.Unlock()

	pp.own.Add(own - 1)
	for w := 1; w < own; w++ {
		go p.worker(pp, w)
	}
	p.serve(pp, 0)
	pp.own.Wait()

	p.mu.Lock()
	for pp.busy > 0 {
		pp.moved.Wait()
	}
	i := slices.Index(p.passes, pp)
	p.passes = slices.Delete(p.passes, i, i+1)
	p.idle.Broadcast()
	err := pp.err
	p.mu.Unlock()
	pp.tab, pp.fn = nil, nil
	pagedPassPool.Put(pp)
	return err
}

// worker is pass pp's worker w > 0 on a goroutine of its own.
func (p *PagedBacking) worker(pp *pagedPass, w int) {
	defer pp.own.Done()
	p.serve(pp, w)
}

// serve is worker w of pass pp. It parks until slot w is free or pp needs
// nothing more; holding the slot, it feeds pages to every in-flight pass
// it may serve until pp has every page taken or has failed, then hands
// the slot on.
func (p *PagedBacking) serve(pp *pagedPass, w int) {
	p.mu.Lock()
	s := p.slots[w]
	for s.held && pp.left > 0 && pp.err == nil {
		pp.moved.Wait()
	}
	if s.held || pp.left == 0 || pp.err != nil {
		p.mu.Unlock()
		return
	}
	s.held = true
	for pp.left > 0 && pp.err == nil {
		ent, idx, ver := p.pickLocked(w)
		if ent == nil && idx < 0 {
			// Every page pp still needs is being read by another slot.
			p.landed.Wait()
			continue
		}
		if ent == nil {
			ent = p.readLocked(idx, ver, w)
		}
		if ent != nil {
			p.mu.Unlock()
			p.feed(s, ent, w)
			p.mu.Lock()
			p.releaseLocked(ent)
		}
		p.settleLocked(s)
	}
	s.held = false
	for _, q := range p.passes {
		q.moved.Broadcast() // a parked worker may take the slot
	}
	p.mu.Unlock()
}

// readLocked reads version ver of page idx for scan slot w's riders
// (caller holds mu, which it drops for the read) and returns it with a
// reference held — cached, or streamed when the cache is full — ridden
// also by the passes that started during the read. A failed read returns
// nil and becomes every rider's error.
func (p *PagedBacking) readLocked(idx, ver, w int) *pageEnt {
	p.mu.Unlock()
	ent, err := p.loadPage(idx, ver, true)
	p.mu.Lock()
	p.loading[ver] = false
	p.landed.Broadcast() // for holders waiting at their tail
	if err != nil {
		s := p.slots[w]
		for i := range s.errs {
			s.errs[i] = err
		}
		return nil
	}
	p.loads.Add(1)
	ent = p.insertLocked(ent, true)
	p.rideLocked(idx, ver, w)
	return ent
}

// feed runs the callbacks of every pass riding the held page, back to
// back while the page is hot in this core's cache, recording each one's
// error beside it. A rider that has failed meanwhile is skipped.
func (p *PagedBacking) feed(s *pagedSlot, ent *pageEnt, w int) {
	pLo, pHi := p.pageSpan(ent.idx)
	for i, r := range s.riders {
		if r.failed.Load() {
			continue
		}
		cLo, cHi := max(r.lo, pLo), min(r.hi, pHi)
		s.errs[i] = r.fn(w, strategy.Chunk{Row: cLo, Data: ent.data[(cLo-pLo)*p.lanes : (cHi-pLo)*p.lanes]})
	}
}

// settleLocked ends slot s's hold (caller holds mu): each rider's callback
// has returned, so it is no longer busy with the page, and a callback's or
// the read's error fails that rider alone.
func (p *PagedBacking) settleLocked(s *pagedSlot) {
	for i, r := range s.riders {
		r.busy--
		if err := s.errs[i]; err != nil {
			p.failLocked(r, err)
		}
		if r.busy == 0 && (r.left == 0 || r.err != nil) {
			r.moved.Broadcast() // r's caller may return
		}
		s.riders[i], s.errs[i] = nil, nil
	}
	s.riders, s.errs = s.riders[:0], s.errs[:0]
}

// failLocked records pass pp's first error (caller holds mu) and wakes
// its parked workers and caller.
func (p *PagedBacking) failLocked(pp *pagedPass, err error) {
	if pp.err == nil {
		pp.err = err
		pp.failed.Store(true)
		pp.moved.Broadcast()
		p.landed.Broadcast() // pp's holders may be waiting at its tail
	}
}

// servesLocked reports whether slot w may take a page for pass pp (caller
// holds mu): pp still needs pages, has not failed, and its budget covers w.
func servesLocked(pp *pagedPass, w int) bool {
	return pp.left > 0 && pp.err == nil && w < pp.budget
}

// pickLocked picks slot w's next page (caller holds mu) and takes it for
// every pass that rides it (rideLocked). Passes are tried oldest first, so
// the oldest finishes and frees its caller before a younger one's needs
// delay it: for each, a resident page version it needs, least recently
// loaded first, then the lowest page it needs whose version no slot is
// reading. A resident page is returned with a reference held, a read as
// its page index and version ver; (nil, -1, -1) means no pass slot w
// serves has a page that is neither taken nor being read.
//
// A hit leaves the page's recency alone, and a read into a full cache
// streams (insertLocked), so the resident set is the pages that filled
// the cache, less those a written page or a Row read evicted since, least
// recently loaded first, or a dropped version gave up.
func (p *PagedBacking) pickLocked(w int) (ent *pageEnt, idx, ver int) {
	for _, pp := range p.passes {
		if !servesLocked(pp, w) {
			continue
		}
		for pp.next < len(pp.taken) && pp.taken[pp.next] {
			pp.next++
		}
		for e := p.lru; e != nil; e = e.prev {
			if i := e.idx - pp.first; i >= pp.next && i < len(pp.taken) && !pp.taken[i] && int(pp.tab[e.idx]) == e.ver {
				e.refs++
				p.hits.Add(1)
				p.rideLocked(e.idx, e.ver, w)
				return e, -1, -1
			}
		}
		for i := pp.next; i < len(pp.taken); i++ {
			if idx, ver := pp.first+i, int(pp.tab[pp.first+i]); !pp.taken[i] && !p.loading[ver] {
				p.loading[ver] = true
				p.rideLocked(idx, ver, w)
				return nil, idx, ver
			}
		}
	}
	return nil, -1, -1
}

// rideLocked takes version ver of page idx for every in-flight pass slot
// w serves that still needs that version, appending each to the slot's
// riders (caller holds mu).
func (p *PagedBacking) rideLocked(idx, ver, w int) {
	s := p.slots[w]
	for _, pp := range p.passes {
		if i := idx - pp.first; servesLocked(pp, w) && i >= 0 && i < len(pp.taken) && !pp.taken[i] && int(pp.tab[idx]) == ver {
			pp.taken[i] = true
			pp.left--
			pp.busy++
			s.riders = append(s.riders, pp)
			s.errs = append(s.errs, nil)
		}
	}
}

// row returns a copy of row i (copies stay valid forever, so Snapshot.Row's
// release-independent lifetime holds even though page buffers recycle).
func (p *PagedBacking) row(t *pageTable, i int) ([]uint32, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, p.closedErr()
	}
	p.rowReads++
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		p.rowReads--
		p.idle.Broadcast()
		p.mu.Unlock()
	}()
	ent, err := p.acquirePage(i/p.pageRows, int(t.slot[i/p.pageRows]))
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
