package engine

import (
	"context"
	"fmt"

	"gpudpf/internal/store"
)

// RowWrite is one row overwrite in an update batch (re-exported from
// internal/store so backends and their consumers share one type without
// every layer importing the store directly).
type RowWrite = store.RowWrite

// Epoch implements Member: the replica's current effective table
// epoch.
func (r *Replica) Epoch(ctx context.Context) (uint64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return r.st.Epoch(), nil
}

// validateRowWrites checks an update batch against a table shape with
// engine-level error naming — the one validator behind Replica and
// Cluster batch updates, so the two front doors can never drift in what
// they accept or how they explain a rejection. (The store's own
// validation runs again under its lock.)
func validateRowWrites(writes []RowWrite, rows, lanes int) error {
	for i, w := range writes {
		if w.Row >= uint64(rows) {
			return fmt.Errorf("engine: update %d targets row %d outside table of %d rows", i, w.Row, rows)
		}
		if len(w.Vals) != lanes {
			return fmt.Errorf("engine: update %d (row %d) has %d lanes, table rows have %d", i, w.Row, len(w.Vals), lanes)
		}
	}
	return nil
}

// UpdateBatch implements Backend: the writes land atomically as one
// new epoch — an Answer observes all of them or none, never a torn subset.
func (r *Replica) UpdateBatch(ctx context.Context, writes []RowWrite) (uint64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if err := validateRowWrites(writes, r.rows, r.lanes); err != nil {
		return 0, err
	}
	epoch, err := r.st.Apply(writes)
	if err != nil {
		return 0, fmt.Errorf("engine: %w", err)
	}
	return epoch, nil
}

// PrepareUpdate implements Member.
func (r *Replica) PrepareUpdate(ctx context.Context, epoch uint64, writes []RowWrite) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := validateRowWrites(writes, r.rows, r.lanes); err != nil {
		return err
	}
	if err := r.st.Prepare(epoch, writes); err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	return nil
}

// CommitUpdate implements Member.
func (r *Replica) CommitUpdate(ctx context.Context, epoch uint64) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := r.st.Commit(epoch); err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	return nil
}

// AbortUpdate implements Member.
func (r *Replica) AbortUpdate(ctx context.Context, epoch uint64) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := r.st.Abort(epoch); err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	return nil
}
