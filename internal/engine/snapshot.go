package engine

import (
	"context"
	"fmt"
)

// Ping implements Member: an in-process replica is alive by construction.
func (r *Replica) Ping(ctx context.Context) error { return ctx.Err() }

// SnapshotMeta implements Member over the replica's store.
func (r *Replica) SnapshotMeta(ctx context.Context) (snapEpoch, effEpoch uint64, lo, hi int, err error) {
	if err := ctx.Err(); err != nil {
		return 0, 0, 0, 0, err
	}
	sn := r.st.Acquire()
	defer sn.Release()
	return sn.Epoch(), r.st.Epoch(), 0, r.rows, nil
}

// SnapshotChunk implements Member. The returned slice is a copy —
// the snapshot is released before returning.
func (r *Replica) SnapshotChunk(ctx context.Context, epoch uint64, off, max int) ([]uint32, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if off < 0 || max <= 0 {
		return nil, fmt.Errorf("engine: snapshot chunk needs off >= 0 and max > 0 (got %d, %d)", off, max)
	}
	sn := r.st.Acquire()
	defer sn.Release()
	if sn.Epoch() != epoch {
		return nil, fmt.Errorf("engine: snapshot moved from epoch %d to %d during transfer; restart from SnapshotMeta", epoch, sn.Epoch())
	}
	words := r.rows * r.lanes
	if off >= words {
		return nil, nil
	}
	end := off + max
	if end > words {
		end = words
	}
	// CopyWords assembles the window from the snapshot's chunk iterator, so
	// export works identically over in-RAM, written, and paged backings.
	out := make([]uint32, end-off)
	if err := sn.CopyWords(off, out); err != nil {
		return nil, err
	}
	return out, nil
}

// AdoptSnapshot implements SnapshotSink over the replica's store.
func (r *Replica) AdoptSnapshot(ctx context.Context, epoch, floor uint64, lo, hi int, vals []uint32) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := r.st.Adopt(epoch, floor, lo, hi, vals); err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	return nil
}
