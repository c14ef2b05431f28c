// Package store owns the serving table: an epoch-versioned Store whose
// readers pin immutable snapshots while writers install whole new epochs,
// so the stable table per query epoch the paper's serving story assumes is
// a mechanism instead of a convention.
//
// An epoch is a page table (shadow paging: Lorie, "Physical Integrity in a
// Large Segmented Database", ACM TODS 1977): page index → a refcounted
// version in a numbered slot of the table's root. An in-RAM root's slots
// are the page-sized windows of the adopted array plus pooled page
// buffers; a paged root's are the table file's pages plus those of one
// scratch file (see PagedBacking). Apply, Prepare and Adopt copy only the
// pages their batch touches into free slots and install a page table that
// shares every other version, so a batch costs O(pages it touches) plus an
// O(pages) table copy on both roots; an empty batch shares its parent's
// table. A slot whose last mapping table dies is free for the next write,
// windows of the array included, so an in-RAM store holds the table plus
// the pages its retained epochs wrote.
//
// A Snapshot is one epoch's strategy.TableView, streamed through an
// order-free Pass: an unwritten in-RAM table as row blocks of one array,
// a written one as those blocks cut at its written pages, a paged one through an LRU cache every pass in flight
// shares. Acquire pins the current snapshot (an atomic refcount, no lock on
// the read path); pinned readers of epoch N keep reading N while N+1
// installs.
//
// The two-phase form (Prepare / Commit / Abort) is the same installation
// split across a cluster handshake: every shard stages the target epoch,
// the coordinator commits only when all acked, and a straggler's Abort
// both drops a staged epoch and rolls back a committed-but-orphaned one,
// so a partial cluster failure leaves every shard readable at the old
// epoch. Epoch numbers never recur: an aborted epoch is burned, so a
// partial share pinned to a rolled-back epoch can never silently
// epoch-match a later, different table.
package store

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"gpudpf/internal/strategy"
)

// RowWrite is one row overwrite in an update batch. Vals must be exactly
// the table's lane count wide. When a batch writes the same row twice, the
// later write wins (batches apply in order).
type RowWrite struct {
	Row  uint64
	Vals []uint32
}

// root holds a table's page versions in numbered slots: slot i below the
// page count is page i's original version, higher slots hold written ones.
// write, drop and vers run under Store.mu; pass and row (a copy on a paged
// root) read only slots a pinned page table maps, on a validated range.
type root interface {
	pass(t *pageTable, lo, hi, workers int, fn func(int, strategy.Chunk) error) error
	row(t *pageTable, i int) ([]uint32, error)
	// write puts page idx's version in slot from, patched by fill(idx,
	// page), into a free slot and returns that slot; from is not read when
	// cover says fill overwrites the page. On an error no slot is taken.
	write(idx, from int, cover bool, fill func(int, []uint32)) (int, error)
	// drop takes back a slot that no page table maps.
	drop(slot int)
	vers() *versions
}

// versions is a root's slot bookkeeping: how many page tables map each
// slot, and the slots a write may reuse.
type versions struct {
	refs  []int32
	spare []int32
}

// take pops a reusable slot, or returns -1 when the caller must grow one.
func (v *versions) take() int {
	if n := len(v.spare); n > 0 {
		s := v.spare[n-1]
		v.spare = v.spare[:n-1]
		return int(s)
	}
	return -1
}

// pageTable is one epoch's page index → slot of root, shared by an empty
// batch's epoch and refcounted; the last reference releases its versions.
type pageTable struct {
	root root
	slot []int32
	flat bool // every page maps its original slot
	refs atomic.Int64
}

// newPageTable wraps slots with one reference and takes one on each of its
// versions (caller holds Store.mu, or owns the root outright).
func newPageTable(r root, slot []int32) *pageTable {
	t := &pageTable{root: r, slot: slot, flat: true}
	v := r.vers()
	for i, s := range slot {
		v.refs[s]++
		t.flat = t.flat && int(s) == i
	}
	t.refs.Store(1)
	return t
}

// ramRoot is an in-RAM table's versions: the adopted array's page windows,
// then pooled page buffers. A freed window takes written versions like any
// other slot (the short last one excepted), so the array is reused.
type ramRoot struct {
	versions
	rows, lanes, pageRows int
	data                  []uint32
	// bufs is the slot → buffer list. A new slot publishes a grown copy,
	// so a reader indexes the list it loaded while a write appends.
	bufs atomic.Pointer[[][]uint32]
}

// pageRowsFor rounds pageBytes down to whole rows of a rows×lanes table
// (at least one, at most the table).
func pageRowsFor(pageBytes, rows, lanes int) int {
	return max(1, min(rows, pageBytes/(4*lanes)))
}

// newRAMRoot adopts data as a root of pageRows-row pages and returns its
// unwritten page table.
func newRAMRoot(data []uint32, rows, lanes, pageRows int) *pageTable {
	r := &ramRoot{rows: rows, lanes: lanes, pageRows: pageRows, data: data}
	pw := pageRows * lanes
	bufs := make([][]uint32, (rows+pageRows-1)/pageRows)
	for i := range bufs {
		bufs[i] = data[i*pw : min((i+1)*pw, len(data))]
	}
	r.bufs.Store(&bufs)
	r.refs = make([]int32, len(bufs))
	return newPageTable(r, identity(len(bufs)))
}

// identity is the page table of n pages that maps each to its own slot.
func identity(n int) []int32 {
	slot := make([]int32, n)
	for i := range slot {
		slot[i] = int32(i)
	}
	return slot
}

func (r *ramRoot) vers() *versions { return &r.versions }

// words returns the words of page idx held in slot s: the array itself
// from the page on when s is idx's own window, so a run of own windows
// reads as one range.
func (r *ramRoot) words(idx, s int) []uint32 {
	if s == idx {
		return r.data[idx*r.pageRows*r.lanes:]
	}
	return (*r.bufs.Load())[s]
}

// pass is strategy.BlockPass over the adopted array: row blocks off one
// atomic dispenser. A written table cuts each block into its runs of pages
// in their own windows, one chunk each, and each other page's rows.
func (r *ramRoot) pass(t *pageTable, lo, hi, workers int, fn func(int, strategy.Chunk) error) error {
	if t.flat {
		return strategy.BlockPass(r.data, r.lanes, lo, hi, workers, fn)
	}
	return strategy.BlockPass(r.data, r.lanes, lo, hi, workers, func(w int, c strategy.Chunk) error {
		for row, end := c.Row, c.Row+len(c.Data)/r.lanes; row < end; {
			p := row / r.pageRows
			s, q := int(t.slot[p]), p+1
			for s == p && q*r.pageRows < end && int(t.slot[q]) == q {
				q++
			}
			off, next := p*r.pageRows, min(end, q*r.pageRows)
			if err := fn(w, strategy.Chunk{Row: row, Data: r.words(p, s)[(row-off)*r.lanes : (next-off)*r.lanes]}); err != nil {
				return err
			}
			row = next
		}
		return nil
	})
}

func (r *ramRoot) row(t *pageTable, i int) ([]uint32, error) {
	idx := i / r.pageRows
	off := i - idx*r.pageRows
	return r.words(idx, int(t.slot[idx]))[off*r.lanes : (off+1)*r.lanes], nil
}

func (r *ramRoot) write(idx, from int, cover bool, fill func(int, []uint32)) (int, error) {
	pw := r.pageRows * r.lanes
	to := r.take()
	if to < 0 {
		bufs := append(*r.bufs.Load(), make([]uint32, pw))
		r.bufs.Store(&bufs)
		to = len(r.refs)
		r.refs = append(r.refs, 0)
	}
	page := (*r.bufs.Load())[to][:min(pw, (r.rows-idx*r.pageRows)*r.lanes)]
	if !cover {
		copy(page, r.words(idx, from))
	}
	fill(idx, page)
	return to, nil
}

func (r *ramRoot) drop(slot int) {
	if len((*r.bufs.Load())[slot]) == r.pageRows*r.lanes {
		r.spare = append(r.spare, int32(slot))
	}
}

// Snapshot is one epoch's immutable table view, implementing
// strategy.TableView. It is safe for concurrent readers; nothing ever
// mutates its data. Callers that obtained it from Acquire must Release it
// exactly once — the versions of a superseded epoch are reclaimed when its
// last reference drops.
type Snapshot struct {
	epoch       uint64
	rows, lanes int
	t           *pageTable
	s           *Store
	// refs counts pins: the store's own while current, staged or retained
	// for rollback, plus one per Acquire. The last returns t's reference.
	refs atomic.Int64
}

// Epoch returns the snapshot's epoch (0 for a freshly adopted table).
func (sn *Snapshot) Epoch() uint64 { return sn.epoch }

// Rows returns the table's row count (immutable across epochs).
func (sn *Snapshot) Rows() int { return sn.rows }

// Lanes returns the table's lane count (immutable across epochs).
func (sn *Snapshot) Lanes() int { return sn.lanes }

// Pass implements strategy.TableView: it calls fn once for each of a set
// of contiguous row runs covering rows [lo, hi) of this epoch exactly once,
// in the order the backing reads cheapest, on up to workers goroutines —
// the read path the strategies' tile passes stream.
func (sn *Snapshot) Pass(lo, hi, workers int, fn func(int, strategy.Chunk) error) error {
	if lo < 0 || hi > sn.rows || lo > hi {
		return fmt.Errorf("store: row range [%d,%d) outside table of %d rows", lo, hi, sn.rows)
	}
	return sn.t.root.pass(sn.t, lo, hi, max(1, workers), fn)
}

// Chunks is Pass on the caller's goroutine alone, for readers that copy
// or checksum a snapshot: it calls fn for each contiguous row run covering
// rows [lo, hi), in no promised order.
func (sn *Snapshot) Chunks(lo, hi int, fn func(strategy.Chunk) error) error {
	return sn.Pass(lo, hi, 1, func(_ int, c strategy.Chunk) error { return fn(c) })
}

// Row returns row i of this epoch, valid until Release. A paged backing
// may fail the underlying page read.
func (sn *Snapshot) Row(i int) ([]uint32, error) {
	if i < 0 || i >= sn.rows {
		return nil, fmt.Errorf("store: row %d outside table of %d rows", i, sn.rows)
	}
	return sn.t.root.row(sn.t, i)
}

// CopyWords copies words [off, off+len(dst)) of the epoch's row-major
// buffer into dst, assembling from chunks — it works for every backing
// and is the export side of snapshot transfer: a healer streams these
// word windows (framed by the wire layer) to a stale peer's Adopt. The
// window need not be row-aligned.
func (sn *Snapshot) CopyWords(off int, dst []uint32) error {
	words := sn.rows * sn.lanes
	if off < 0 || off > words || len(dst) > words-off {
		return fmt.Errorf("store: word window [%d,%d) outside table of %d words", off, off+len(dst), words)
	}
	if len(dst) == 0 {
		return nil
	}
	lanes := sn.lanes
	return sn.t.root.pass(sn.t, off/lanes, (off+len(dst)+lanes-1)/lanes, 1, func(_ int, c strategy.Chunk) error {
		cLo := c.Row * lanes
		start, end := max(cLo, off), min(cLo+len(c.Data), off+len(dst))
		if start < end {
			copy(dst[start-off:end-off], c.Data[start-cLo:end-cLo])
		}
		return nil
	})
}

// tryAcquire pins the snapshot unless it is already dead (refs hit zero
// between the caller loading the pointer and pinning it).
func (sn *Snapshot) tryAcquire() bool {
	for {
		n := sn.refs.Load()
		if n <= 0 {
			return false
		}
		if sn.refs.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// Release unpins the snapshot. The last release of a superseded epoch
// frees the slots only it mapped.
func (sn *Snapshot) Release() { sn.release(false) }

// release is Release with the store's writer lock state made explicit:
// writer-side code that drops references while holding s.mu must not
// re-enter it through the reclamation path.
func (sn *Snapshot) release(locked bool) {
	if sn.refs.Add(-1) > 0 {
		return
	}
	if !locked {
		sn.s.mu.Lock()
		defer sn.s.mu.Unlock()
	}
	releaseTableLocked(sn.t)
}

// releaseTableLocked drops one reference on t (caller holds Store.mu); the
// last one drops each version no other page table maps.
func releaseTableLocked(t *pageTable) {
	if t.refs.Add(-1) > 0 {
		return
	}
	v := t.root.vers()
	for _, s := range t.slot {
		if v.refs[s]--; v.refs[s] == 0 {
			t.root.drop(int(s))
		}
	}
}

// Store is the epoch-versioned owner of one replica's table.
type Store struct {
	rows, lanes, pageRows int

	// cur is the current epoch's snapshot; the store holds one reference
	// on it (dropped when a commit supersedes it).
	cur atomic.Pointer[Snapshot]

	// mu serializes writers: Apply, Prepare, Commit, Abort, Adopt, and
	// version reclamation. The read path (Acquire/Release) never takes it
	// but for a superseded epoch's last release.
	mu     sync.Mutex
	stage  *Snapshot // prepared, not yet committed
	prev   *Snapshot // last superseded epoch, retained (with a ref) so Abort can roll back
	burned uint64    // highest aborted epoch; never reissued
}

// checkShape validates a table shape, returning rows*lanes: rows×lanes×4
// (the byte size paged files and wire offsets compute) must not overflow,
// so a huge table fails loudly here, not as a wrapped index downstream.
func checkShape(rows, lanes int) (int, error) {
	if rows <= 0 || lanes <= 0 {
		return 0, fmt.Errorf("store: invalid table shape %d×%d", rows, lanes)
	}
	if uint64(rows) > math.MaxInt64/4/uint64(lanes) {
		return 0, fmt.Errorf("store: table shape %d×%d overflows (%d words of 4 bytes)", rows, lanes, uint64(rows)*uint64(lanes))
	}
	return rows * lanes, nil
}

// New builds a Store over tab, adopted as epoch 0. The store takes
// ownership of tab's backing array: the caller must not mutate it after
// New (all writes go through Apply or Prepare/Commit).
func New(tab *strategy.Table) (*Store, error) {
	if tab == nil {
		return nil, fmt.Errorf("store: needs a non-empty table")
	}
	words, err := checkShape(tab.NumRows, tab.Lanes)
	if err != nil {
		return nil, err
	}
	if len(tab.Data) != words {
		return nil, fmt.Errorf("store: table data is %d words, shape %d×%d needs %d",
			len(tab.Data), tab.NumRows, tab.Lanes, words)
	}
	// An in-RAM table pages at DefaultPageBytes rounded to whole rows.
	pr := pageRowsFor(DefaultPageBytes, tab.NumRows, tab.Lanes)
	return newStore(tab.NumRows, tab.Lanes, pr, newRAMRoot(tab.Data, tab.NumRows, tab.Lanes, pr)), nil
}

// NewPaged builds a Store over one paged file backing (see OpenPaged),
// which serves no other: neither the table nor its written pages need RAM.
func NewPaged(pb *PagedBacking) (*Store, error) {
	if pb == nil {
		return nil, fmt.Errorf("store: needs a paged backing")
	}
	if _, err := checkShape(pb.rows, pb.lanes); err != nil {
		return nil, err
	}
	return newStore(pb.rows, pb.lanes, pb.pageRows, newPageTable(pb, identity(pb.nPages))), nil
}

func newStore(rows, lanes, pageRows int, t *pageTable) *Store {
	s := &Store{rows: rows, lanes: lanes, pageRows: pageRows}
	s.cur.Store(s.snapshot(0, t))
	return s
}

// snapshot wraps t as epoch's snapshot, holding the store's reference.
func (s *Store) snapshot(epoch uint64, t *pageTable) *Snapshot {
	sn := &Snapshot{epoch: epoch, rows: s.rows, lanes: s.lanes, t: t, s: s}
	sn.refs.Store(1)
	return sn
}

// Shape returns the table's row and lane counts (immutable across epochs).
func (s *Store) Shape() (rows, lanes int) { return s.rows, s.lanes }

// Epoch returns the store's effective epoch: the current snapshot's, or
// the highest aborted epoch if that is newer (aborted epochs are burned,
// not reissued). The next successful update lands strictly above it.
func (s *Store) Epoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.effectiveLocked()
}

func (s *Store) effectiveLocked() uint64 { return max(s.cur.Load().epoch, s.burned) }

// Acquire pins and returns the current snapshot. The caller must Release
// it when done; until then the snapshot's data is guaranteed immutable and
// alive regardless of how many epochs are installed meanwhile. The path is
// lock-free: a reader never waits on a writer.
func (s *Store) Acquire() *Snapshot {
	for {
		sn := s.cur.Load()
		if sn.tryAcquire() {
			// cur may have moved on since: the snapshot was current a
			// moment ago, which is the linearization Acquire promises.
			return sn
		}
		// It died between Load and pin; a new current is installed.
	}
}

// validateWrites checks a batch against the table shape.
func (s *Store) validateWrites(writes []RowWrite) error {
	for i, w := range writes {
		if w.Row >= uint64(s.rows) {
			return fmt.Errorf("store: write %d targets row %d outside table of %d rows", i, w.Row, s.rows)
		}
		if len(w.Vals) != s.lanes {
			return fmt.Errorf("store: write %d (row %d) has %d lanes, table rows have %d", i, w.Row, len(w.Vals), s.lanes)
		}
	}
	return nil
}

// writeLocked builds the current page table's successor: each page in
// pages (ascending) gets a fresh version written by root.write with cover
// and fill, every other page keeps its version. A failed page read or
// write returns every slot taken and changes nothing.
func (s *Store) writeLocked(pages []int, cover func(int) bool, fill func(int, []uint32)) (*pageTable, error) {
	cur := s.cur.Load().t
	slot := slices.Clone(cur.slot)
	for i, p := range pages {
		to, err := cur.root.write(p, int(slot[p]), cover(p), fill)
		if err != nil {
			for _, q := range pages[:i] {
				cur.root.drop(int(slot[q]))
			}
			return nil, err
		}
		slot[p] = int32(to)
	}
	return newPageTable(cur.root, slot), nil
}

// stageLocked builds the snapshot of writes at epoch: an empty batch
// shares the current page table; otherwise, with the batch's last write to
// a row winning, each page it touches is copied once.
func (s *Store) stageLocked(epoch uint64, writes []RowWrite) (*Snapshot, error) {
	if len(writes) == 0 {
		t := s.cur.Load().t
		t.refs.Add(1)
		return s.snapshot(epoch, t), nil
	}
	ws := slices.Clone(writes)
	slices.SortStableFunc(ws, func(a, b RowWrite) int { return cmp.Compare(a.Row, b.Row) })
	pages, n := make([]int, 0, len(ws)), 0
	for i, w := range ws {
		if i+1 < len(ws) && ws[i+1].Row == w.Row {
			continue // a later write to the row wins
		}
		ws[n] = w
		n++
		if p := int(w.Row) / s.pageRows; len(pages) == 0 || pages[len(pages)-1] != p {
			pages = append(pages, p)
		}
	}
	ws, next := ws[:n], 0
	t, err := s.writeLocked(pages, func(int) bool { return false }, func(p int, page []uint32) {
		for ; next < len(ws) && int(ws[next].Row) < (p+1)*s.pageRows; next++ {
			copy(page[(int(ws[next].Row)-p*s.pageRows)*s.lanes:], ws[next].Vals)
		}
	})
	if err != nil {
		return nil, err
	}
	return s.snapshot(epoch, t), nil
}

// installLocked makes sn current, retiring the old current into prev
// (kept pinned so Abort can roll the commit back until the next commit
// supersedes it), or releasing it outright when rollback is unset.
func (s *Store) installLocked(sn *Snapshot, rollback bool) {
	old := s.cur.Load()
	s.cur.Store(sn)
	if s.prev != nil {
		s.prev.release(true) // the rollback window moves forward
		s.prev = nil
	}
	if rollback {
		s.prev = old // the store's reference on old moves from "current" to "rollback"
	} else {
		old.release(true)
	}
}

// Apply installs the batch atomically as the next epoch and returns it.
// Readers pinned to the current epoch are not blocked and keep their view;
// the next Acquire sees the new epoch. Apply fails while a prepared epoch
// is outstanding — a store is either coordinated (Prepare/Commit) or
// direct (Apply), never both at once — and, on a paged table, when a page
// read or write fails (ErrPageRead, ErrPageWrite), leaving the epoch.
func (s *Store) Apply(writes []RowWrite) (uint64, error) {
	if err := s.validateWrites(writes); err != nil {
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stage != nil {
		return 0, fmt.Errorf("store: epoch %d is prepared but not committed; commit or abort it first", s.stage.epoch)
	}
	sn, err := s.stageLocked(s.effectiveLocked()+1, writes)
	if err != nil {
		return 0, err
	}
	s.installLocked(sn, true)
	return sn.epoch, nil
}

// Prepare stages the batch as the given epoch, which must lie strictly
// above the store's effective epoch (a stale coordinator cannot replay an
// old epoch). The staged epoch is invisible to readers until Commit. Only
// one epoch may be staged at a time.
func (s *Store) Prepare(epoch uint64, writes []RowWrite) error {
	if err := s.validateWrites(writes); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stage != nil {
		return fmt.Errorf("store: epoch %d is already prepared; commit or abort it before preparing %d", s.stage.epoch, epoch)
	}
	if eff := s.effectiveLocked(); epoch <= eff {
		return fmt.Errorf("store: cannot prepare epoch %d at epoch %d (prepare must target a later epoch)", epoch, eff)
	}
	var err error
	s.stage, err = s.stageLocked(epoch, writes)
	return err
}

// Commit installs the staged epoch, which must match.
func (s *Store) Commit(epoch uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stage == nil {
		return fmt.Errorf("store: no epoch is prepared (commit %d)", epoch)
	}
	if s.stage.epoch != epoch {
		return fmt.Errorf("store: epoch %d is prepared, cannot commit %d", s.stage.epoch, epoch)
	}
	s.installLocked(s.stage, true)
	s.stage = nil
	return nil
}

// Abort returns the store to the state before `epoch`, whatever phase the
// update died in: it drops a staged epoch, rolls back a committed current
// epoch to its predecessor (retained since the commit), and is a no-op —
// not an error — when the store never saw the epoch at all. In every case
// the epoch is burned: it will never be reissued. Coordinators fan Abort
// to every shard after a partial failure; idempotence is what lets them
// not track who got how far. Rollback is pointer surgery: prev pins its
// own page table.
func (s *Store) Abort(epoch uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if epoch > s.burned {
		s.burned = epoch
	}
	if s.stage != nil && s.stage.epoch == epoch {
		s.stage.release(true)
		s.stage = nil
		return nil
	}
	cur := s.cur.Load()
	if cur.epoch == epoch && s.prev != nil {
		// Roll the commit back: reinstate the predecessor as current.
		// prev still carries the store reference retained at commit time.
		prev := s.prev
		s.prev = nil
		s.cur.Store(prev)
		cur.release(true) // drop the store's reference on the rolled-back epoch
	}
	return nil
}

// Adopt is the import side of snapshot transfer: it overwrites rows
// [lo,hi) with vals (row-major, exactly (hi-lo)*lanes words) and installs
// the result atomically as `epoch`, then raises the burned floor to
// `floor`. A stale replica healing from a peer adopts the peer's snapshot
// epoch as its own and inherits the peer's effective epoch as its floor,
// so the two stores agree on both the epoch answers are tagged with and
// the epoch the next update must exceed — without the floor, a healed
// member whose donor had burned epochs would accept a Prepare the donor
// refuses and the pair would diverge again.
//
// Adopt requires epoch to lie strictly above the store's effective epoch
// (healing never moves a table backwards) and refuses while an epoch is
// prepared but uncommitted (the handshake owns the store's future then).
// Rows outside [lo,hi) keep their current content. The rows go straight
// into fresh page versions; an in-RAM Adopt of the whole table copies vals
// into a fresh array as the new root, so the old one dies with its epochs.
// An adopted epoch has no rollback window (Abort of it only burns it): the
// stale table it replaces is never worth reinstating, and holding it would
// double a full heal's footprint.
func (s *Store) Adopt(epoch, floor uint64, lo, hi int, vals []uint32) error {
	if lo < 0 || hi > s.rows || lo >= hi {
		return fmt.Errorf("store: adopt range [%d,%d) outside table of %d rows", lo, hi, s.rows)
	}
	if len(vals) != (hi-lo)*s.lanes {
		return fmt.Errorf("store: adopt of rows [%d,%d) needs %d words, got %d", lo, hi, (hi-lo)*s.lanes, len(vals))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stage != nil {
		return fmt.Errorf("store: epoch %d is prepared but not committed; cannot adopt epoch %d", s.stage.epoch, epoch)
	}
	if eff := s.effectiveLocked(); epoch <= eff {
		return fmt.Errorf("store: cannot adopt epoch %d at epoch %d (adopt must move forward)", epoch, eff)
	}
	var t *pageTable
	if _, ram := s.cur.Load().t.root.(*ramRoot); ram && lo == 0 && hi == s.rows {
		t = newRAMRoot(slices.Clone(vals), s.rows, s.lanes, s.pageRows)
	} else {
		pr := s.pageRows
		var pages []int
		for p := lo / pr; p <= (hi-1)/pr; p++ {
			pages = append(pages, p)
		}
		var err error
		t, err = s.writeLocked(pages, func(p int) bool { return lo <= p*pr && min((p+1)*pr, s.rows) <= hi }, func(p int, page []uint32) {
			a, b := max(lo, p*pr), min(hi, (p+1)*pr)
			copy(page[(a-p*pr)*s.lanes:], vals[(a-lo)*s.lanes:(b-lo)*s.lanes])
		})
		if err != nil {
			return err
		}
	}
	s.installLocked(s.snapshot(epoch, t), false)
	if floor > s.burned {
		s.burned = floor
	}
	return nil
}

// ChainDepth is 0 while the current epoch maps only its root's original
// pages and 1 once it maps a written version: the name is the overlay
// chain's, which bench/ records as store.chain_depth_max.
func (s *Store) ChainDepth() int {
	if s.cur.Load().t.flat {
		return 0
	}
	return 1
}
