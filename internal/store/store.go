// Package store owns the serving table: an epoch-versioned Store whose
// readers pin immutable snapshots while writers install whole new epochs.
// The paper's serving story assumes a stable table per query epoch; this
// package is where that assumption becomes a mechanism instead of a
// convention.
//
// A Snapshot is one epoch's table view, implementing strategy.TableView:
// the answer path streams it through an order-free pass (Pass), which is
// what lets one read contract serve three backings — an in-RAM array (row
// blocks, one maximal chunk to a single worker), a delta-epoch overlay
// chain (its base's chunks split around the patched rows), and a paged
// file backing for tables larger than memory (page-sized chunks through an
// LRU cache, resident pages first, see PagedBacking). Acquire pins the
// current snapshot (an atomic refcount, no lock on the read path) and
// Release unpins it; the backing of a fully released, superseded epoch is
// recycled (in-RAM arrays into a spare pool) or dropped (overlay patches).
//
// Writers never mutate in place. Apply stages a batch of row writes as an
// O(writes) patch layer — a sorted row→lanes overlay sharing the current
// epoch's backing — and atomically installs it as epoch N+1; readers
// pinned to N keep reading N, unblocked and unbothered (the
// -race-provable fix for the historical Update/Answer race). The full
// table is NOT copied per batch: write amplification is k·lanes words for
// a k-row batch. Chains of patches are folded back into a base copy when
// they exceed the configurable max chain depth (SetMaxChainDepth, default
// DefaultMaxChainDepth) — for a paged base the fold merges the patches
// into one overlay instead, never materializing the table in RAM. The
// two-phase form (Prepare / Commit / Abort) is the same installation
// split across a cluster handshake: every shard stages the target epoch,
// the coordinator commits only when all acked, and a straggler's Abort
// both drops a staged epoch and rolls back a committed-but-orphaned one,
// so a partial cluster failure leaves every shard readable at the old
// epoch.
//
// Epoch numbers never recur. An aborted epoch is burned: Epoch() and the
// next prepare/apply target skip past it, so a partial share pinned to a
// rolled-back epoch can never silently epoch-match a later, different
// table (the merge-consistency check a cluster runs would otherwise be
// blind to exactly the failure it exists to catch).
package store

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"gpudpf/internal/strategy"
)

// ErrNotContiguous is returned by Snapshot.RowRange when the snapshot's
// backing is not one contiguous in-RAM buffer (a delta-epoch overlay or a
// paged backing). RowRange never silently materializes a copy; callers
// that can stream should use Pass, callers that need a copy should use
// CopyWords or strategy.TableFromView.
var ErrNotContiguous = errors.New("store: snapshot backing is not contiguous; use Pass or CopyWords")

// RowWrite is one row overwrite in an update batch. Vals must be exactly
// the table's lane count wide. When a batch writes the same row twice, the
// later write wins (batches apply in order).
type RowWrite struct {
	Row  uint64
	Vals []uint32
}

// source is a backing's data provider — the polymorphism point behind the
// pass. Implementations are immutable once installed.
type source interface {
	// pass is strategy.TableView.Pass over a range the caller has
	// validated, with workers ≥ 1.
	pass(lo, hi, workers int, fn func(int, strategy.Chunk) error) error
	// row returns row i. The slice stays valid while the source does.
	// Paged sources return copies: page buffers recycle after eviction, so
	// handing out page memory would let a reload overwrite it.
	row(i int) ([]uint32, error)
	// flat returns the whole table as one contiguous buffer when the
	// source is a single in-RAM array, nil otherwise.
	flat() []uint32
}

// ramSource is the classic in-RAM backing: one flat row-major array.
type ramSource struct {
	data  []uint32
	lanes int
}

func (r *ramSource) pass(lo, hi, workers int, fn func(int, strategy.Chunk) error) error {
	return strategy.BlockPass(r.data, r.lanes, lo, hi, workers, fn)
}

func (r *ramSource) row(i int) ([]uint32, error) {
	return r.data[i*r.lanes : (i+1)*r.lanes], nil
}

func (r *ramSource) flat() []uint32 { return r.data }

// overlaySource is one delta epoch: a sorted set of overwritten rows (rows
// ascending, vals the matching row-major lane data) over a shared base
// backing. Its pass is the base's pass with each base chunk split around
// the patched rows it covers: runs of base rows and runs of consecutive
// patched rows alternate as separate chunks. depth counts overlay layers
// down to the chain's root (1 = directly on a root).
type overlaySource struct {
	base  *backing
	rows  []int
	vals  []uint32
	lanes int
	depth int
}

func (o *overlaySource) pass(lo, hi, workers int, fn func(int, strategy.Chunk) error) error {
	return o.base.src.pass(lo, hi, workers, func(w int, c strategy.Chunk) error {
		return o.split(w, c, fn)
	})
}

// split yields base chunk c to fn with the patch's rows substituted.
func (o *overlaySource) split(w int, c strategy.Chunk, fn func(int, strategy.Chunk) error) error {
	lo, hi := c.Row, c.Row+len(c.Data)/o.lanes
	base := func(from, to int) error {
		if from == to {
			return nil
		}
		return fn(w, strategy.Chunk{Row: from, Data: c.Data[(from-lo)*o.lanes : (to-lo)*o.lanes]})
	}
	cur := lo
	for i := sort.SearchInts(o.rows, lo); i < len(o.rows) && o.rows[i] < hi; {
		// A run of consecutively patched rows is contiguous in vals (rows
		// is sorted and the run's indices are adjacent), so it is one
		// chunk.
		j := i
		for j+1 < len(o.rows) && o.rows[j+1] == o.rows[j]+1 && o.rows[j+1] < hi {
			j++
		}
		runLo, runHi := o.rows[i], o.rows[j]+1
		if err := base(cur, runLo); err != nil {
			return err
		}
		if err := fn(w, strategy.Chunk{Row: runLo, Data: o.vals[i*o.lanes : (j+1)*o.lanes]}); err != nil {
			return err
		}
		cur, i = runHi, j+1
	}
	return base(cur, hi)
}

func (o *overlaySource) row(i int) ([]uint32, error) {
	k := sort.SearchInts(o.rows, i)
	if k < len(o.rows) && o.rows[k] == i {
		return o.vals[k*o.lanes : (k+1)*o.lanes], nil
	}
	return o.base.src.row(i)
}

func (o *overlaySource) flat() []uint32 { return nil }

// backing is one epoch's data source plus the count of snapshots and
// overlays that still reference it. An empty Prepare (an epoch tick with
// no row writes) shares its predecessor's backing instead of copying the
// table, and every overlay shares its base, so the refcount is
// per-backing, not per-snapshot.
type backing struct {
	src  source
	refs atomic.Int64
}

// newBacking wraps src with one reference.
func newBacking(src source) *backing {
	b := &backing{src: src}
	b.refs.Store(1)
	return b
}

// chainDepth is the overlay depth of a backing (0 for a root).
func chainDepth(b *backing) int {
	if ov, ok := b.src.(*overlaySource); ok {
		return ov.depth
	}
	return 0
}

// chainRoot follows overlay bases down to the chain's root backing.
func chainRoot(b *backing) *backing {
	for {
		ov, ok := b.src.(*overlaySource)
		if !ok {
			return b
		}
		b = ov.base
	}
}

// Snapshot is one epoch's immutable table view, implementing
// strategy.TableView. It is safe for concurrent readers; nothing ever
// mutates its data. Callers that obtained it from Acquire must Release it
// exactly once — the backing of a superseded epoch is reclaimed when its
// last reference drops.
type Snapshot struct {
	epoch       uint64
	rows, lanes int
	b           *backing
	s           *Store
	// refs counts pins on this snapshot: the store's own reference while
	// current (or retained for rollback), plus one per outstanding
	// Acquire. At zero the snapshot is dead and its backing reference is
	// returned.
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
// in the order the backing reads cheapest, on up to workers goroutines.
// This is THE snapshot read path — it works for every backing and is what
// the strategies' accumulateTile streams.
func (sn *Snapshot) Pass(lo, hi, workers int, fn func(int, strategy.Chunk) error) error {
	if lo < 0 || hi > sn.rows || lo > hi {
		return fmt.Errorf("store: row range [%d,%d) outside table of %d rows", lo, hi, sn.rows)
	}
	return sn.b.src.pass(lo, hi, max(1, workers), fn)
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
	return sn.b.src.row(i)
}

// RowRange returns rows [lo, hi) of this epoch as one zero-copy slice,
// valid until Release. Only a contiguous in-RAM backing can do this;
// overlaid and paged epochs return ErrNotContiguous (stream with Pass
// or copy with CopyWords instead). The index arithmetic is safe by
// construction: New/NewPaged reject shapes whose rows×lanes product would
// overflow, and the range is bounds-checked here.
func (sn *Snapshot) RowRange(lo, hi int) ([]uint32, error) {
	if lo < 0 || hi > sn.rows || lo > hi {
		return nil, fmt.Errorf("store: row range [%d,%d) outside table of %d rows", lo, hi, sn.rows)
	}
	flat := sn.b.src.flat()
	if flat == nil {
		return nil, ErrNotContiguous
	}
	return flat[lo*sn.lanes : hi*sn.lanes], nil
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
	rowLo := off / lanes
	rowHi := (off + len(dst) + lanes - 1) / lanes
	return sn.b.src.pass(rowLo, rowHi, 1, func(_ int, c strategy.Chunk) error {
		cLo := c.Row * lanes
		start, end := cLo, cLo+len(c.Data)
		if start < off {
			start = off
		}
		if end > off+len(dst) {
			end = off + len(dst)
		}
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
// reclaims its backing (recycling in-RAM arrays into the spare pool).
func (sn *Snapshot) Release() { sn.release(false) }

// release is Release with the store's writer lock state made explicit:
// writer-side code that drops references while holding s.mu must not
// re-enter it through the reclamation path.
func (sn *Snapshot) release(locked bool) {
	if sn.refs.Add(-1) > 0 {
		return
	}
	if locked {
		sn.s.releaseBackingLocked(sn.b)
	} else {
		sn.s.releaseBacking(sn.b)
	}
}

// staged is a prepared-but-uncommitted epoch.
type staged struct {
	epoch uint64
	b     *backing
}

// Store is the epoch-versioned owner of one replica's table.
type Store struct {
	rows, lanes int
	words       int // rows*lanes, overflow-checked at construction

	// cur is the current epoch's snapshot; the store holds one reference
	// on it (dropped when a commit supersedes it).
	cur atomic.Pointer[Snapshot]

	// mu serializes writers: Apply, Prepare, Commit, Abort, and backing
	// reclamation. The read path (Acquire/Release) never takes it.
	mu       sync.Mutex
	stage    *staged
	prev     *Snapshot // last superseded epoch, retained (with a ref) so Abort can roll back
	burned   uint64    // highest aborted epoch; never reissued
	spares   [][]uint32
	maxDepth int // overlay chain depth that triggers compaction
}

// maxSpares bounds the recycled-backing pool: current + previous + one
// in-flight copy is the steady-state working set; anything beyond is heap
// the store should give back.
const maxSpares = 2

// DefaultMaxChainDepth is the default overlay chain depth bound: a write
// batch landing on a chain this deep folds the chain into a fresh base
// copy (or, over a paged root, into one merged overlay) instead of adding
// a layer. Depth trades read-time merge work (one binary search + run
// split per layer) against write amplification (a fold costs a full-table
// copy for RAM roots).
const DefaultMaxChainDepth = 4

// checkShape validates a table shape, returning rows*lanes. The products
// rows×lanes and rows×lanes×4 (the byte size, which paged files and wire
// offsets compute) must fit without overflow, so huge-table configs fail
// loudly here instead of wrapping a slice index downstream.
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
	return newStore(tab.NumRows, tab.Lanes, words, &ramSource{data: tab.Data, lanes: tab.Lanes}), nil
}

// NewPaged builds a Store whose epoch 0 is served from a paged file
// backing (see OpenPaged): the table never needs to fit in RAM. Updates
// layer delta epochs over the paged root; compaction merges them into one
// overlay rather than materializing the table.
func NewPaged(pb *PagedBacking) (*Store, error) {
	if pb == nil {
		return nil, fmt.Errorf("store: needs a paged backing")
	}
	words, err := checkShape(pb.rows, pb.lanes)
	if err != nil {
		return nil, err
	}
	return newStore(pb.rows, pb.lanes, words, &pagedSource{p: pb}), nil
}

func newStore(rows, lanes, words int, src source) *Store {
	s := &Store{rows: rows, lanes: lanes, words: words, maxDepth: DefaultMaxChainDepth}
	sn := &Snapshot{rows: rows, lanes: lanes, b: newBacking(src), s: s}
	sn.refs.Store(1) // the store's own reference
	s.cur.Store(sn)
	return s
}

// SetMaxChainDepth bounds the delta-epoch overlay chain (minimum 1; see
// DefaultMaxChainDepth). Safe to call concurrently with updates; affects
// batches staged after it returns.
func (s *Store) SetMaxChainDepth(d int) {
	if d < 1 {
		d = 1
	}
	s.mu.Lock()
	s.maxDepth = d
	s.mu.Unlock()
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

func (s *Store) effectiveLocked() uint64 {
	e := s.cur.Load().epoch
	if s.burned > e {
		e = s.burned
	}
	return e
}

// Acquire pins and returns the current snapshot. The caller must Release
// it when done; until then the snapshot's data is guaranteed immutable and
// alive regardless of how many epochs are installed meanwhile. The path is
// lock-free: a reader never waits on a writer.
func (s *Store) Acquire() *Snapshot {
	for {
		sn := s.cur.Load()
		if sn.tryAcquire() {
			// cur may have moved on while we pinned; that is fine — we
			// pinned a snapshot that was current a moment ago, which is
			// exactly the linearization Acquire promises.
			return sn
		}
		// The snapshot died between Load and pin (superseded and fully
		// released); the new current is already installed.
	}
}

// releaseBacking drops one reference on b, reclaiming dead backings: a
// dead overlay releases its base in turn (unwinding the chain), a dead
// in-RAM root recycles its array, a dead paged root is left to the
// PagedBacking's owner.
func (s *Store) releaseBacking(b *backing) {
	s.mu.Lock()
	s.releaseBackingLocked(b)
	s.mu.Unlock()
}

func (s *Store) releaseBackingLocked(b *backing) {
	for b != nil {
		if b.refs.Add(-1) > 0 {
			return
		}
		switch src := b.src.(type) {
		case *ramSource:
			s.recycleLocked(src.data)
			return
		case *overlaySource:
			b = src.base // the overlay's arrays go to the GC; unwind
		default:
			return // paged root: the file outlives epochs
		}
	}
}

func (s *Store) recycleLocked(data []uint32) {
	if len(s.spares) < maxSpares {
		s.spares = append(s.spares, data)
	}
}

// getBufferLocked pops a spare backing array or allocates a fresh one.
func (s *Store) getBufferLocked() []uint32 {
	if n := len(s.spares); n > 0 {
		buf := s.spares[n-1]
		s.spares = s.spares[:n-1]
		return buf
	}
	return make([]uint32, s.words)
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

// dedupWrites sorts a validated batch into overlay form: ascending unique
// rows with the batch's last write per row winning. Cost is O(k log k)
// time and O(k·lanes) space for a k-write batch — the whole point of
// delta epochs.
func dedupWrites(writes []RowWrite, lanes int) (rows []int, vals []uint32) {
	idx := make([]int, len(writes))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		ra, rb := writes[idx[a]].Row, writes[idx[b]].Row
		if ra != rb {
			return ra < rb
		}
		return idx[a] < idx[b]
	})
	rows = make([]int, 0, len(writes))
	vals = make([]uint32, 0, len(writes)*lanes)
	for _, i := range idx {
		r := int(writes[i].Row)
		if n := len(rows); n > 0 && rows[n-1] == r {
			copy(vals[(n-1)*lanes:], writes[i].Vals) // later write wins
			continue
		}
		rows = append(rows, r)
		vals = append(vals, writes[i].Vals...)
	}
	return rows, vals
}

// stageLocked builds the staged state for writes at the given epoch. An
// empty batch shares the current backing (an epoch tick costs no copy); a
// non-empty one layers an O(writes) overlay over it (folding the chain
// when it is maxDepth deep).
func (s *Store) stageLocked(epoch uint64, writes []RowWrite) *staged {
	cur := s.cur.Load()
	if len(writes) == 0 {
		cur.b.refs.Add(1)
		return &staged{epoch: epoch, b: cur.b}
	}
	rows, vals := dedupWrites(writes, s.lanes)
	return &staged{epoch: epoch, b: s.patchLocked(cur.b, rows, vals)}
}

// patchLocked layers the overlay-form patch (rows, vals) over base,
// compacting instead when the chain would exceed maxDepth. The patch
// arrays are owned by the result.
func (s *Store) patchLocked(base *backing, rows []int, vals []uint32) *backing {
	depth := chainDepth(base) + 1
	if depth > s.maxDepth {
		return s.compactLocked(base, rows, vals)
	}
	base.refs.Add(1)
	return newBacking(&overlaySource{base: base, rows: rows, vals: vals, lanes: s.lanes, depth: depth})
}

// compactLocked folds base's overlay chain together with the new patch.
// Over an in-RAM root the fold materializes a fresh flat copy (reusing the
// spare pool, so steady-state churn alternates buffers instead of growing
// the heap). Over a paged root the table is never materialized: every
// layer's patches merge into ONE overlay directly on the root.
func (s *Store) compactLocked(base *backing, rows []int, vals []uint32) *backing {
	root := chainRoot(base)
	if _, paged := root.src.(*pagedSource); paged {
		mrows, mvals := mergeChain(base, rows, vals, s.lanes)
		root.refs.Add(1)
		return newBacking(&overlaySource{base: root, rows: mrows, vals: mvals, lanes: s.lanes, depth: 1})
	}
	data := s.getBufferLocked()
	// RAM chains cannot fail a pass.
	_ = base.src.pass(0, s.rows, 1, func(_ int, c strategy.Chunk) error {
		copy(data[c.Row*s.lanes:], c.Data)
		return nil
	})
	for i, r := range rows {
		copy(data[r*s.lanes:(r+1)*s.lanes], vals[i*s.lanes:(i+1)*s.lanes])
	}
	return newBacking(&ramSource{data: data, lanes: s.lanes})
}

// mergeChain flattens every overlay layer of base's chain plus the new
// topmost patch (rows, vals) into one overlay-form patch. Upper layers
// win on row collisions.
func mergeChain(base *backing, rows []int, vals []uint32, lanes int) ([]int, []uint32) {
	// Collect layers bottom→top, then apply in order so later layers win.
	var layers []*overlaySource
	for b := base; ; {
		ov, ok := b.src.(*overlaySource)
		if !ok {
			break
		}
		layers = append([]*overlaySource{ov}, layers...)
		b = ov.base
	}
	merged := make(map[int][]uint32)
	for _, ov := range layers {
		for i, r := range ov.rows {
			merged[r] = ov.vals[i*lanes : (i+1)*lanes]
		}
	}
	for i, r := range rows {
		merged[r] = vals[i*lanes : (i+1)*lanes]
	}
	mrows := make([]int, 0, len(merged))
	for r := range merged {
		mrows = append(mrows, r)
	}
	sort.Ints(mrows)
	mvals := make([]uint32, 0, len(merged)*lanes)
	for _, r := range mrows {
		mvals = append(mvals, merged[r]...)
	}
	return mrows, mvals
}

// installLocked makes st the current snapshot, retiring the old current
// into prev (kept pinned so Abort can roll the commit back until the next
// commit supersedes it).
func (s *Store) installLocked(st *staged) *Snapshot {
	sn := &Snapshot{epoch: st.epoch, rows: s.rows, lanes: s.lanes, b: st.b, s: s}
	sn.refs.Store(1) // the store's reference
	old := s.cur.Load()
	s.cur.Store(sn)
	if s.prev != nil {
		s.prev.release(true) // the rollback window moves forward
	}
	s.prev = old // the store's reference on old moves from "current" to "rollback"
	return sn
}

// Apply installs the batch atomically as the next epoch and returns it.
// Readers pinned to the current epoch are not blocked and keep their view;
// the next Acquire sees the new epoch. Apply fails while a prepared epoch
// is outstanding — a store is either coordinated (Prepare/Commit) or
// direct (Apply), never both at once. A k-row batch costs O(k·lanes)
// (overlay-form patch), not a table copy, until chain compaction.
func (s *Store) Apply(writes []RowWrite) (uint64, error) {
	if err := s.validateWrites(writes); err != nil {
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stage != nil {
		return 0, fmt.Errorf("store: epoch %d is prepared but not committed; commit or abort it first", s.stage.epoch)
	}
	sn := s.installLocked(s.stageLocked(s.effectiveLocked()+1, writes))
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
	s.stage = s.stageLocked(epoch, writes)
	return nil
}

// Commit installs the staged epoch, which must match. Readers pinned to
// the previous epoch keep their view until they Release.
func (s *Store) Commit(epoch uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stage == nil {
		return fmt.Errorf("store: no epoch is prepared (commit %d)", epoch)
	}
	if s.stage.epoch != epoch {
		return fmt.Errorf("store: epoch %d is prepared, cannot commit %d", s.stage.epoch, epoch)
	}
	s.installLocked(s.stage)
	s.stage = nil
	return nil
}

// Abort returns the store to the state before `epoch`, whatever phase the
// update died in: it drops a staged epoch, rolls back a committed current
// epoch to its predecessor (retained since the commit), and is a no-op —
// not an error — when the store never saw the epoch at all. In every case
// the epoch is burned: it will never be reissued. Coordinators fan Abort
// to every shard after a partial failure; idempotence is what lets them
// not track who got how far. Rollback works across a compaction: prev
// pins its own backing chain, so reinstating it is pointer surgery
// regardless of what the aborted epoch's backing looked like.
func (s *Store) Abort(epoch uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if epoch > s.burned {
		s.burned = epoch
	}
	if s.stage != nil && s.stage.epoch == epoch {
		st := s.stage
		s.stage = nil
		s.releaseBackingLocked(st.b)
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
// Rows outside [lo,hi) keep their current content. Readers pinned to older
// epochs are unaffected, as with any install. Like Apply, the adopted
// range lands as an overlay patch (consecutive rows), so a partial-range
// heal does not copy the table.
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
	rows := make([]int, hi-lo)
	for i := range rows {
		rows[i] = lo + i
	}
	pv := make([]uint32, len(vals))
	copy(pv, vals)
	cur := s.cur.Load()
	s.installLocked(&staged{epoch: epoch, b: s.patchLocked(cur.b, rows, pv)})
	if floor > s.burned {
		s.burned = floor
	}
	return nil
}

// Rollbackable reports whether Abort of the current epoch could still roll
// back (the predecessor is retained). Exposed for tests.
func (s *Store) Rollbackable() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.prev != nil
}

// ChainDepth returns the current epoch's overlay chain depth (0 =
// contiguous base). Exposed for tests and introspection.
func (s *Store) ChainDepth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return chainDepth(s.cur.Load().b)
}
