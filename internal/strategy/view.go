package strategy

import "fmt"

// Chunk is one contiguous, row-aligned run of table data yielded by a
// TableView's Pass: rows [Row, Row+len(Data)/lanes) in row-major order. The
// slice is immutable shared storage — callers read, never write, and must
// not retain it past the callback that yielded it: paged backings recycle
// page buffers once a chunk's callback returns, so a retained slice may be
// overwritten by a later page load. (Copy inside the callback to keep
// data, as TableFromView does.)
type Chunk struct {
	// Row is the table row index of Data's first row.
	Row int
	// Data is the run's row-major lane data, a whole number of rows.
	Data []uint32
}

// TableView is the snapshot read contract the answer path consumes: a
// table shape plus an order-free pass over contiguous row runs. The
// accumulate a pass feeds is a sum mod 2^32, so the order of its chunks is
// free, and the backing — the only party that knows what is cheap to read
// next — chooses it: an in-RAM view hands out row blocks (one maximal
// chunk to a single worker, so the SIMD kernel's per-call work is
// unchanged), a delta-epoch overlay splits its base's chunks around the
// patched rows, and a paged backing visits the pages already resident
// before it reads its own. All through the same contract, which is what
// lets one answer path serve tables that are in RAM, patched, or larger
// than memory.
type TableView interface {
	// Rows is the table's row count.
	Rows() int
	// Lanes is the entry width in uint32 lanes.
	Lanes() int
	// Pass calls fn for a set of contiguous row runs that covers every
	// row of [lo, hi) exactly once, in an order the backing chooses, on up
	// to workers goroutines (a budget below one counts as one).
	// w, in [0, workers), names the calling worker: calls with the same w
	// never overlap, so fn can keep a partial result per worker. After
	// the first error (fn's, a range error, or a backing read error) every
	// worker stops at its next chunk; Pass returns that error once every
	// call has returned.
	Pass(lo, hi, workers int, fn func(w int, c Chunk) error) error
	// RowRange returns rows [lo, hi) as one contiguous slice when the
	// backing can do so without copying, and an error otherwise (see
	// store.ErrNotContiguous). Callers that can stream should prefer
	// Pass, which never fails on fragmentation.
	RowRange(lo, hi int) ([]uint32, error)
}

// checkViewRange validates a chunk-iterator row range ([lo,hi) within a
// table of rows rows; empty ranges are allowed and iterate nothing).
func checkViewRange(rows, lo, hi int) error {
	if lo < 0 || hi > rows || lo > hi {
		return fmt.Errorf("strategy: row range [%d,%d) invalid for table of %d rows", lo, hi, rows)
	}
	return nil
}

// tableView adapts *Table to TableView: one maximal chunk, zero-copy
// ranges. (Table's shape is exported fields, so the adapter carries the
// method set.)
type tableView struct{ t *Table }

// View returns the table as a TableView. The view shares the table's
// storage; the immutability convention (see Table) carries over.
func (t *Table) View() TableView { return tableView{t} }

// Rows implements TableView.
func (v tableView) Rows() int { return v.t.NumRows }

// Lanes implements TableView.
func (v tableView) Lanes() int { return v.t.Lanes }

// Pass implements TableView with the in-RAM row blocks (BlockPass).
func (v tableView) Pass(lo, hi, workers int, fn func(int, Chunk) error) error {
	if err := checkViewRange(v.t.NumRows, lo, hi); err != nil {
		return err
	}
	return BlockPass(v.t.Data, v.t.Lanes, lo, hi, workers, fn)
}

// RowRange implements TableView (always contiguous for an in-RAM table).
func (v tableView) RowRange(lo, hi int) ([]uint32, error) {
	if err := checkViewRange(v.t.NumRows, lo, hi); err != nil {
		return nil, err
	}
	return v.t.Data[lo*v.t.Lanes : hi*v.t.Lanes], nil
}

// TableFromView materializes a view into a freshly allocated Table — the
// escape hatch for callers that genuinely need a contiguous private copy
// (replica cloning, tests). It is the only sanctioned way to flatten a
// fragmented or paged view; the answer path itself never does this.
func TableFromView(v TableView) (*Table, error) {
	tab, err := NewTable(v.Rows(), v.Lanes())
	if err != nil {
		return nil, err
	}
	lanes := v.Lanes()
	err = v.Pass(0, v.Rows(), 1, func(_ int, c Chunk) error {
		copy(tab.Data[c.Row*lanes:], c.Data)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return tab, nil
}
