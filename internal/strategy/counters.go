package strategy

import "sync/atomic"

// Counters accumulates the host work an executor does: PRF blocks walked
// and table bytes streamed. RunRangeInto adds into it while it computes;
// all methods are safe for concurrent use.
type Counters struct {
	prfBlocks atomic.Int64
	readBytes atomic.Int64
}

// AddPRFBlocks records n 128-bit PRF output blocks.
func (c *Counters) AddPRFBlocks(n int64) { c.prfBlocks.Add(n) }

// AddRead records n table bytes streamed.
func (c *Counters) AddRead(n int64) { c.readBytes.Add(n) }

// Stats is an immutable snapshot of a Counters.
type Stats struct {
	// PRFBlocks is the number of 128-bit PRF blocks computed.
	PRFBlocks int64
	// ReadBytes is the table bytes streamed: one pass over the range's
	// rows per tile of queries.
	ReadBytes int64
}

// Snapshot returns the current totals.
func (c *Counters) Snapshot() Stats {
	return Stats{PRFBlocks: c.prfBlocks.Load(), ReadBytes: c.readBytes.Load()}
}
