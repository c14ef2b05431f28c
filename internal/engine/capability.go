package engine

import (
	"context"

	"gpudpf/internal/strategy"
)

// The engine seam is two roles. A Backend is what a front door serves:
// answer a key batch, overwrite rows. A Member is what a Cluster's replica
// group or a shard node holds: a Backend that can also answer a row
// sub-range at a named table epoch, join the cluster's epoch handshake,
// state its configuration and held rows, and donate its snapshot. Replica
// and shardnet.Client are Members; Replica and Cluster are what fronts
// serve. The type system requires the role — nothing probes for it at run
// time, so no invariant (epochs never blend, configurations agree, held
// ranges cover assignments) is conditional on what a member happens to
// implement. What stays optional is listed at the bottom.

// Backend is one party's answer engine as seen by every request path.
type Backend interface {
	// Answer expands a batch of marshaled DPF keys against the table and
	// returns one answer share (Lanes wide) per key. Safe for concurrent
	// use; ctx cancels work between shards. Each call evaluates against
	// one consistent table epoch: an update installed mid-batch is not
	// seen by that batch.
	Answer(ctx context.Context, keys [][]byte) ([][]uint32, error)
	// UpdateBatch overwrites rows (the paper's transparent
	// embedding-update path, §4.2) atomically as the next table epoch and
	// returns it — the one way a row changes. In-flight Answers keep their
	// pinned snapshot: they observe all of the batch or none of it.
	UpdateBatch(ctx context.Context, writes []RowWrite) (uint64, error)
	// Shape returns the served table's row and lane counts.
	Shape() (rows, lanes int)
	// Counters exposes the accumulated host counters (PRF blocks walked,
	// table bytes streamed) for reporting.
	Counters() strategy.Stats
}

// Member is a Backend that can serve inside a Cluster, in process (Replica)
// or over the wire (shardnet.Client, speaking to a node that exposes a
// Member through shardnet.NewServer).
type Member interface {
	Backend
	// AnswerRangeEpoch evaluates the keys against rows [lo, hi) only,
	// returning per-key PARTIAL shares — summing the partials of ranges
	// that partition [0, rows) lane-wise (mod 2^32) yields exactly Answer's
	// shares — and the epoch of the snapshot they were computed against,
	// which is what lets a Cluster refuse to merge partials of two table
	// versions. ok reports the epoch is known; a Cluster refuses a partial
	// without one. The answers belong to the caller, which may write to
	// them: a Cluster merges its shards' partials into shard 0's.
	AnswerRangeEpoch(ctx context.Context, keys [][]byte, lo, hi int) (answers [][]uint32, epoch uint64, ok bool, err error)

	// Epoch returns the member's current effective table epoch (aborted
	// epochs count: they are burned, never reissued).
	Epoch(ctx context.Context) (uint64, error)
	// PrepareUpdate stages the writes as the given epoch (which must lie
	// above the member's effective epoch), invisible to readers until
	// CommitUpdate — the two-phase form a Cluster installs one epoch
	// across many members with, all-or-nothing.
	PrepareUpdate(ctx context.Context, epoch uint64, writes []RowWrite) error
	// CommitUpdate installs the staged epoch.
	CommitUpdate(ctx context.Context, epoch uint64) error
	// AbortUpdate undoes the epoch whatever phase it reached: it drops a
	// staged epoch, rolls back a committed current epoch to its
	// predecessor, and no-ops when the member never saw the epoch —
	// idempotent on purpose, so a coordinator can fan it everywhere after
	// a partial failure without tracking who got how far.
	AbortUpdate(ctx context.Context, epoch uint64) error

	// PRGName and Party are the serving configuration the member pins —
	// with the shape, the facts two members must agree on before their
	// partial shares can be merged.
	PRGName() string
	Party() int
	// HeldRange is the global rows the member authoritatively holds. A
	// shard node serving a slice of a larger domain answers garbage
	// outside it; Cluster checks each assignment against it.
	HeldRange() (lo, hi int)
	// Ping is a cheap liveness probe: what the health prober sends a
	// cooled-down member before trusting it with a batch.
	Ping(ctx context.Context) error

	// SnapshotMeta reports the member's current snapshot epoch, its
	// effective epoch (>= the snapshot epoch when epochs were burned by
	// aborts), and the held row range SnapshotChunk offsets are relative
	// to — the donor side of CatchUp.
	SnapshotMeta(ctx context.Context) (snapEpoch, effEpoch uint64, lo, hi int, err error)
	// SnapshotChunk returns up to max words of the snapshot's row-major
	// lane buffer for the held range, starting at word offset off. The
	// epoch must match a SnapshotMeta result; once the snapshot has moved
	// on SnapshotChunk fails and the transfer restarts from a fresh
	// SnapshotMeta. A short or empty return past the end of the buffer
	// terminates the stream.
	SnapshotChunk(ctx context.Context, epoch uint64, off, max int) ([]uint32, error)
}

// RangeBackend is the name bench/ (closed to engine PRs) still spells
// Member by.
type RangeBackend = Member

// BatchUpdater is Backend's update half, which only bench/ still asserts.
type BatchUpdater interface {
	UpdateBatch(ctx context.Context, writes []RowWrite) (uint64, error)
}

// The optional capabilities: two a front door asserts for on its Backend,
// one CatchUp asserts for on the receiving Member, and one NewCluster
// asserts for on every Member.

// KeyValidator checks a marshaled key against a backend's configuration
// without evaluating it. Batching front doors use it to reject a bad key
// at its own request instead of failing every co-batched request.
type KeyValidator interface {
	ValidateKey(raw []byte) error
}

// EpochRetryCounter reports how many answer batches a backend re-fanned
// because their partial shares straddled an update commit (the cluster's
// ErrMixedEpoch retry path). Single replicas never re-fan and simply do
// not have the capability.
type EpochRetryCounter interface {
	EpochRetries() uint64
}

// AsEpochRetries probes b for the mixed-epoch re-fan counter — what the
// serving front door surfaces to the load harness so epoch-retry cost is
// observable under real traffic.
func AsEpochRetries(b Backend) (EpochRetryCounter, bool) {
	c, ok := b.(EpochRetryCounter)
	return c, ok
}

// SnapshotSink is a Member that can import a peer's snapshot in one call.
// In-process replicas have it; remote members do not, and CatchUp installs
// the donor's rows on them through the epoch handshake instead.
type SnapshotSink interface {
	// AdoptSnapshot overwrites rows [lo,hi) with vals (row-major,
	// (hi-lo)*lanes words), installs the result as epoch, and raises the
	// member's burned-epoch floor to floor. epoch must lie strictly above
	// the member's effective epoch.
	AdoptSnapshot(ctx context.Context, epoch, floor uint64, lo, hi int, vals []uint32) error
}

// Pipeliner is a Member that computes nothing on its caller's goroutine: its
// AnswerRangeEpoch writes the request, calls the context's RequestSent
// method if the context has one, and only then waits for the reply. A
// Cluster whose every member says Pipelined sends a pass's shard requests
// back to back from the calling goroutine, each from the previous shard's
// RequestSent, and reads the replies in reverse order; with any other
// member it runs every shard after the first on a goroutine of its own, so
// that in-process members compute side by side.
type Pipeliner interface {
	Pipelined() bool
}
