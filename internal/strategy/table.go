// Package strategy implements the paper's DPF execution strategies
// (§3.2): branch-parallel, level-by-level, memory-bounded tree traversal
// with and without operator fusion, cooperative-groups scheduling for very
// large tables, the multi-GPU split, and the CPU baseline.
//
// A Strategy is one execution method and its analytic model:
//
//   - RunRangeInto really evaluates a batch of DPF keys against a row
//     range of a TableView on the host, adding correct secret shares into
//     caller-provided buffers while counting PRF blocks, modeled
//     device-memory allocations and global-memory traffic into a
//     gpu.Counters. The free functions Run and RunRange are the
//     allocate-then-call forms (whole table, row range) for tests,
//     benchmarks and experiments; the serving path calls RunRangeInto.
//   - Model produces the same counts analytically and converts them into
//     modeled device latency/throughput/utilization via the gpu cost model.
//
// The strategies differ in how they expand the DPF tree; what follows the
// expansion is stated once (tiles.go): runTiles cuts the batch into tiles
// of at most 32 queries, expands each tile's keys into a pooled leaf
// matrix through the strategy's expander, streams the row range once per
// tile through the kernel-dispatched accumulate, and decides how the tile
// uses the cores — per-query fan-out of the expansion, row-block fan-out
// of the stream, the next tile's expansion overlapped with this tile's
// stream. LevelByLevel, CPUBaseline, MemBoundTree and MultiGPU supply an
// expander plus their counter accounting; BranchParallel (a path per
// leaf) and CoopGroups (one query owns the device) keep their own bodies.
//
// Tests pin the whole-table run's counted totals to Model's analytic
// totals, so the experiment harness can use Model at paper scale (tables
// of 2^24+ entries) without hours of host compute, while correctness and
// the count formulas are validated by real execution at smaller scale.
package strategy

import (
	"fmt"

	"gpudpf/internal/dpf"
)

// Table is an embedding table held by one PIR server: NumRows rows of
// Lanes 32-bit lanes each (entry bytes = 4·Lanes). The DPF domain is the
// next power of two ≥ NumRows; leaves beyond NumRows contribute nothing.
//
// Ownership convention: a Table handed to the serving stack is a SNAPSHOT
// payload. internal/store adopts it as one immutable epoch — the
// strategies stream Data with no locks because nothing ever mutates a
// served table in place; updates build a new Table (a new epoch) instead.
// Code that builds tables (loaders, tests) may fill Data freely BEFORE
// handing the table over; afterwards all writes go through the store.
type Table struct {
	// NumRows is the number of embedding entries.
	NumRows int
	// Lanes is the entry width in uint32 lanes.
	Lanes int
	// Data is the row-major table content, len NumRows·Lanes.
	Data []uint32
}

// NewTable allocates a zeroed table.
func NewTable(rows, lanes int) (*Table, error) {
	if rows <= 0 || lanes <= 0 {
		return nil, fmt.Errorf("strategy: invalid table shape %dx%d", rows, lanes)
	}
	return &Table{NumRows: rows, Lanes: lanes, Data: make([]uint32, rows*lanes)}, nil
}

// Row returns row i as a slice into the table.
func (t *Table) Row(i int) []uint32 { return t.Data[i*t.Lanes : (i+1)*t.Lanes] }

// Clone returns a deep copy of the table — a fresh mutable buffer for
// callers that need to derive a new snapshot payload from a served one.
func (t *Table) Clone() *Table {
	data := make([]uint32, len(t.Data))
	copy(data, t.Data)
	return &Table{NumRows: t.NumRows, Lanes: t.Lanes, Data: data}
}

// Bits returns the DPF tree depth for this table: ceil(log2(NumRows)),
// minimum 1.
func (t *Table) Bits() int { return dpf.DomainBits(t.NumRows) }

// SizeBytes is the table's memory footprint.
func (t *Table) SizeBytes() int64 { return int64(t.NumRows) * int64(t.Lanes) * 4 }

// EntryBytes is one row's size in bytes.
func (t *Table) EntryBytes() int { return t.Lanes * 4 }
