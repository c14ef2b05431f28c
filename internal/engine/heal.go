package engine

import (
	"context"
	"errors"
	"fmt"
)

// Heal brings a stale or tripped replica-group member back to the
// cluster's current table epoch from a healthy same-shard peer and
// re-admits it to rotation. Each round is one CatchUp of the shard's
// assigned rows from the first sibling that is not quarantined.
//
// Update churn may advance the cluster's epoch while a transfer is in
// flight: Heal catches up best-effort a bounded number of rounds without
// blocking updates, then takes the cluster's update lock for one final
// round — with the handshake frozen the donor cannot move, so the member
// provably lands on the current epoch before its quarantine is lifted.
func (c *Cluster) Heal(ctx context.Context, shard, member int) error {
	if shard < 0 || shard >= len(c.groups) {
		return fmt.Errorf("engine: heal: no shard %d in a cluster of %d", shard, len(c.groups))
	}
	g := c.groups[shard]
	if member < 0 || member >= len(g.members) {
		return fmt.Errorf("engine: heal: shard %d has no member %d (group of %d)", shard, member, len(g.members))
	}
	// Best-effort catch-up rounds outside the update lock: shrink the gap
	// while churn continues.
	var lastErr error
	for attempt := 0; attempt < healAttempts; attempt++ {
		synced, err := c.healOnce(ctx, g, shard, member)
		if err != nil {
			lastErr = err
			if ctx.Err() != nil {
				return fmt.Errorf("engine: heal shard %d member %s: %w", shard, g.names[member], err)
			}
			continue
		}
		if synced {
			break
		}
	}
	// Final round with updates frozen: the donor's epoch cannot advance
	// under c.umu, so one successful pass means the member IS current.
	c.umu.Lock()
	defer c.umu.Unlock()
	for attempt := 0; attempt < healAttempts; attempt++ {
		synced, err := c.healOnce(ctx, g, shard, member)
		if err != nil {
			lastErr = err
			if ctx.Err() != nil {
				break
			}
			continue
		}
		if !synced {
			continue
		}
		g.health[member].recover()
		return nil
	}
	if lastErr == nil {
		lastErr = errors.New("member did not converge to the donor's epoch")
	}
	return fmt.Errorf("engine: heal shard %d member %s: %w", shard, g.names[member], lastErr)
}

// healOnce runs one catch-up round of the member against a same-shard
// donor: the first other member that is not quarantined.
func (c *Cluster) healOnce(ctx context.Context, g *shardGroup, shard, member int) (synced bool, err error) {
	for j := range g.members {
		if j == member || g.health[j].isStale() {
			continue
		}
		synced, err = CatchUp(ctx, g.members[member], g.members[j], c.bounds[shard], c.bounds[shard+1])
		if err != nil {
			err = fmt.Errorf("from donor %s: %w", g.names[j], err)
		}
		return synced, err
	}
	return false, errors.New("no healthy donor in the replica group")
}

// CatchUp runs one snapshot catch-up round — the one algorithm behind
// Cluster.Heal and `pirserver -join`: compare recv's effective epoch with
// donor's, and if recv is behind bring its rows [lo, hi) (the rows it
// serves; donor must hold them, whatever else either side holds) to
// donor's pinned snapshot — or just raise recv's burned-epoch floor when
// only burned numbers separate them. recv adopts the rows in one call when
// it is a SnapshotSink (an in-process Replica); otherwise they travel
// through the epoch handshake it already speaks — prepared as donor's
// snapshot epoch, committed, then burned up to donor's effective epoch —
// so remote members heal over the existing wire protocol (as one prepared
// batch, bounded by the wire layer's frame cap; very large shards -join).
//
// synced reports recv had already reached donor's effective epoch. A round
// that moved recv returns false: donor may have advanced meanwhile, and the
// caller's next round settles it.
func CatchUp(ctx context.Context, recv, donor Member, lo, hi int) (synced bool, err error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	have, err := recv.Epoch(ctx)
	if err != nil {
		return false, fmt.Errorf("member unreachable: %w", err)
	}
	snapEpoch, donorEff, dLo, dHi, err := donor.SnapshotMeta(ctx)
	if err != nil {
		return false, fmt.Errorf("donor: %w", err)
	}
	if dLo > lo || dHi < hi {
		return false, fmt.Errorf("donor holds rows [%d,%d), cannot donate [%d,%d)", dLo, dHi, lo, hi)
	}
	if have >= donorEff {
		return true, nil
	}
	if snapEpoch <= have {
		// Only burned epoch numbers separate them: raise the member's
		// floor (AbortUpdate burns idempotently) instead of re-shipping a
		// table it already has.
		if aerr := recv.AbortUpdate(ctx, donorEff); aerr != nil {
			return false, fmt.Errorf("raising burned floor to %d: %w", donorEff, aerr)
		}
		return false, nil
	}
	_, lanes := recv.Shape()
	words := (hi - lo) * lanes
	buf := make([]uint32, 0, words)
	for len(buf) < words {
		// Chunk offsets are relative to the donor's held range.
		off := (lo-dLo)*lanes + len(buf)
		chunk, cerr := donor.SnapshotChunk(ctx, snapEpoch, off, min(catchUpChunkWords, words-len(buf)))
		if cerr != nil {
			return false, fmt.Errorf("donor at offset %d: %w", off, cerr)
		}
		if len(chunk) == 0 {
			return false, fmt.Errorf("donor snapshot stream ended at %d of %d words", len(buf), words)
		}
		if len(buf)+len(chunk) > words {
			return false, fmt.Errorf("donor snapshot stream overran %d words", words)
		}
		buf = append(buf, chunk...)
	}
	if sink, ok := recv.(SnapshotSink); ok {
		if aerr := sink.AdoptSnapshot(ctx, snapEpoch, donorEff, lo, hi, buf); aerr != nil {
			return false, fmt.Errorf("adopting donor epoch %d: %w", snapEpoch, aerr)
		}
		return false, nil
	}
	writes := make([]RowWrite, hi-lo)
	for r := range writes {
		writes[r] = RowWrite{Row: uint64(lo + r), Vals: buf[r*lanes : (r+1)*lanes]}
	}
	if perr := recv.PrepareUpdate(ctx, snapEpoch, writes); perr != nil {
		return false, fmt.Errorf("preparing donor epoch %d on member: %w", snapEpoch, perr)
	}
	if cerr := recv.CommitUpdate(ctx, snapEpoch); cerr != nil {
		_ = recv.AbortUpdate(ctx, snapEpoch)
		return false, fmt.Errorf("committing donor epoch %d on member: %w", snapEpoch, cerr)
	}
	if donorEff > snapEpoch {
		if aerr := recv.AbortUpdate(ctx, donorEff); aerr != nil {
			return false, fmt.Errorf("raising burned floor to %d: %w", donorEff, aerr)
		}
	}
	return false, nil
}
