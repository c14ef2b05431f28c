// Package batchpir implements partial batch retrieval (PBR), the batch-PIR
// scheme the paper adopts from Servan-Schreiber et al. (§4.1): the table is
// segmented into L/I contiguous bins of I entries, and the client issues
// exactly one DPF query per bin — always to every bin, so the server learns
// nothing about which bins matter. A multi-lookup that spreads across bins
// costs one table pass total instead of one pass per lookup; lookups that
// collide in a bin beyond the first are dropped, which is what the ML
// co-design (internal/codesign) trades against model quality.
//
// This package holds the PBR math and the bin Server. The client half is
// pir's: a pir.Client over BinSize rows fetches a plan's Offsets through
// pir.TwoServer, with each party's Server behind pir.InProcess.
package batchpir

import (
	"fmt"
	"math"
	"math/rand/v2"

	"gpudpf/internal/pir"
)

// Config describes a PBR segmentation.
type Config struct {
	// NumRows is the table length L.
	NumRows int
	// BinSize is the entries-per-bin parameter I. Smaller bins mean fewer
	// collisions (fewer drops) but more bins and hence more keys
	// (communication); larger bins mean the opposite — the §4.1 trade-off.
	BinSize int
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.NumRows <= 0 {
		return fmt.Errorf("batchpir: NumRows must be positive, got %d", c.NumRows)
	}
	if c.BinSize <= 0 || c.BinSize > c.NumRows {
		return fmt.Errorf("batchpir: BinSize must be in [1, %d], got %d", c.NumRows, c.BinSize)
	}
	return nil
}

// NumBins is the number of bins ⌈L/I⌉.
func (c Config) NumBins() int { return (c.NumRows + c.BinSize - 1) / c.BinSize }

// Bin returns which bin an index falls into and its offset within the bin.
func (c Config) Bin(index uint64) (bin int, offset uint64) {
	return int(index / uint64(c.BinSize)), index % uint64(c.BinSize)
}

// BinRows is the number of rows bin b actually holds (the last bin may be
// short).
func (c Config) BinRows(b int) int {
	if b == c.NumBins()-1 {
		if r := c.NumRows - b*c.BinSize; r < c.BinSize {
			return r
		}
	}
	return c.BinSize
}

// BinBits is the DPF depth for a bin query.
func (c Config) BinBits() int {
	bits := 1
	for 1<<uint(bits) < c.BinSize {
		bits++
	}
	return bits
}

// Plan is the outcome of assigning a wanted index set to bins.
type Plan struct {
	// Offsets[b] is the in-bin offset queried in bin b (a real want or a
	// dummy — the server cannot tell).
	Offsets []uint64
	// Served maps each bin to the original index it retrieves, or -1 for a
	// dummy query.
	Served []int64
	// Retrieved lists the wanted indices that will be returned.
	Retrieved []uint64
	// Dropped lists wanted indices lost to bin collisions, in input order.
	Dropped []uint64
}

// BuildPlan assigns wanted indices to bins, first come first served: when
// several wants collide in one bin, earlier entries win, so callers should
// order indices by importance. Every bin gets exactly one query; bins
// without a want receive a uniformly random dummy offset, keeping the
// query count and shape independent of the access pattern (the §4.2
// leakage requirement). Duplicate indices beyond the first are dropped.
func BuildPlan(cfg Config, indices []uint64, rng *rand.Rand) (Plan, error) {
	if err := cfg.Validate(); err != nil {
		return Plan{}, err
	}
	nb := cfg.NumBins()
	p := Plan{
		Offsets: make([]uint64, nb),
		Served:  make([]int64, nb),
	}
	for b := range p.Served {
		p.Served[b] = -1
	}
	seen := make(map[uint64]bool, len(indices))
	for _, idx := range indices {
		if idx >= uint64(cfg.NumRows) {
			return Plan{}, fmt.Errorf("batchpir: index %d outside table of %d rows", idx, cfg.NumRows)
		}
		if seen[idx] {
			continue // duplicate lookups are served by the same bin query
		}
		bin, off := cfg.Bin(idx)
		if p.Served[bin] >= 0 {
			p.Dropped = append(p.Dropped, idx)
			continue
		}
		seen[idx] = true
		p.Offsets[bin] = off
		p.Served[bin] = int64(idx)
		p.Retrieved = append(p.Retrieved, idx)
	}
	for b := range p.Offsets {
		if p.Served[b] < 0 {
			p.Offsets[b] = uint64(rng.IntN(cfg.BinRows(b)))
		}
	}
	return p, nil
}

// ExpectedRetrievalRate is the analytic fraction of q uniformly random
// distinct lookups PBR retrieves with the given bin count: occupied bins
// over queries, E = B(1-(1-1/B)^q)/q.
func ExpectedRetrievalRate(q, bins int) float64 {
	if q <= 0 || bins <= 0 {
		return 0
	}
	b := float64(bins)
	return b * (1 - math.Pow(1-1/b, float64(q))) / float64(q)
}

// SplitTable splits the table into per-bin sub-tables (contiguous row
// ranges; a short final bin is zero-padded to BinSize so every bin
// accepts the same key shape). Every bin COPIES its rows out of the
// parent: bins are handed to engine replicas, whose epoch-versioned
// stores adopt the buffer as snapshot backing (and recycle it as copy
// scratch once superseded) — bins aliasing one parent array would let
// two replicas, or both parties' servers over the same table, scribble
// over each other's epoch-0 snapshots. The parent stays the caller's
// own mutable reference copy.
func SplitTable(cfg Config, tab *pir.Table) ([]*pir.Table, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if tab.NumRows != cfg.NumRows {
		return nil, fmt.Errorf("batchpir: table has %d rows, config says %d", tab.NumRows, cfg.NumRows)
	}
	bins := make([]*pir.Table, cfg.NumBins())
	for b := range bins {
		lo := b * cfg.BinSize
		rows := cfg.BinRows(b)
		data := make([]uint32, cfg.BinSize*tab.Lanes)
		copy(data, tab.Data[lo*tab.Lanes:(lo+rows)*tab.Lanes])
		bins[b] = &pir.Table{NumRows: cfg.BinSize, Lanes: tab.Lanes, Data: data}
	}
	return bins, nil
}
