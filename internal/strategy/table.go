// Package strategy is the host executor of the paper's DPF-PIR answer
// (§3.1, §3.2): it evaluates a batch of DPF keys against a row range of a
// table and adds each key's secret share of the dot product into
// caller-provided buffers.
//
// MemBoundTree is the one executor, the paper's memory-bounded traversal
// (§3.2.3). Its descent (expandMemBound) feeds one tile loop (tiles.go):
// runTiles cuts the batch into tiles of at most 32 queries, expands each
// tile's keys into a pooled leaf matrix, streams the row range once per
// tile through the kernel-dispatched accumulate, and decides how the tile
// uses the cores — per-query fan-out of the expansion, row-block fan-out
// of the stream, the next tile's expansion overlapped with this tile's
// stream. The table arrives as a TableView, so the same loop serves
// in-RAM, written and paged tables. The free functions Run and RunRange
// are the allocate-then-call forms for tests and benchmarks; the serving
// path calls RunRangeInto.
//
// Counters record host work only: the PRF blocks the walk computes and the
// table bytes the tile passes stream. The paper's GPU strategies, their
// device cost models and the §3.2.5 scheduler are package model, which
// prices the same traversal analytically and which the serving binaries
// do not link.
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

// Bits returns the DPF tree depth for this table: ceil(log2(NumRows)),
// minimum 1.
func (t *Table) Bits() int { return dpf.DomainBits(t.NumRows) }
