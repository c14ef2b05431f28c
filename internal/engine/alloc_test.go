package engine

import (
	"context"
	"testing"
)

// answerAllocs measures steady-state allocations of one Answer call after
// a warmup that fills the replica's pools and scratch.
func answerAllocs(t *testing.T, r *Replica, keys [][]byte) float64 {
	t.Helper()
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := r.Answer(ctx, keys); err != nil {
			t.Fatal(err)
		}
	}
	return testing.AllocsPerRun(20, func() {
		if _, err := r.Answer(ctx, keys); err != nil {
			t.Fatal(err)
		}
	})
}

// TestAnswerSteadyStateAllocs pins the tentpole's zero-allocation claim:
// with pooled keys, pooled shard partials and the strategies'
// RunRangeInto, a sequential replica's steady-state Answer allocates
// nothing beyond the two allocations of the returned answer batch (flat
// backing + headers). AllocsPerRun runs under GOMAXPROCS(1), so the
// strategies take their inline expansion paths — exactly the engine's
// per-shard execution shape.
func TestAnswerSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates and defeats sync.Pool reuse")
	}
	// The 1024-lane shape is the co-located wide row: every batch size
	// there runs the register-blocked accumulate kernel's whole-vector
	// bodies, whose per-call pointer arguments must stay on the stack.
	const rows = 1 << 10
	for _, sh := range []struct {
		lanes   int
		batches []int
	}{{8, []int{1, 4, 32}}, {1024, []int{1, 32}}} {
		tab := buildTable(t, rows, sh.lanes, 1)
		for _, batch := range sh.batches {
			indices := make([]uint64, batch)
			for i := range indices {
				indices[i] = uint64(i * 31 % rows)
			}
			k0s, _ := genKeys(t, tab, indices, 2)
			r, err := NewReplica(tab, Config{Party: 0, Shards: 1})
			if err != nil {
				t.Fatal(err)
			}
			if got := answerAllocs(t, r, k0s); got > 2 {
				t.Errorf("lanes=%d batch=%d: sequential Answer allocates %.1f/op, want ≤ 2 (returned answers only)", sh.lanes, batch, got)
			}
		}
	}
}

// TestAnswerShardedAllocsBounded: the sharded path spawns its worker
// goroutines per call, but everything else — keys, partials, merge — is
// pooled, so per-call allocations stay a small constant independent of
// batch and table size (the seed path allocated per key per shard per
// node).
func TestAnswerShardedAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates and defeats sync.Pool reuse")
	}
	const rows, lanes, batch = 1 << 10, 8, 16
	tab := buildTable(t, rows, lanes, 3)
	indices := make([]uint64, batch)
	for i := range indices {
		indices[i] = uint64(i * 17 % rows)
	}
	k0s, _ := genKeys(t, tab, indices, 4)
	r, err := NewReplica(tab, Config{Party: 0, Shards: 4, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Budget: the two returned-answer allocations plus O(workers) transient
	// goroutine/closure state. Nothing may scale with batch × shards.
	if got := answerAllocs(t, r, k0s); got > 16 {
		t.Errorf("sharded Answer allocates %.1f/op, want ≤ 16 (answers + O(workers) fan-out)", got)
	}
}
