package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"gpudpf/internal/strategy"
)

// fullTableWrites turns a table state into an every-row update batch.
func fullTableWrites(tab *strategy.Table) []RowWrite {
	writes := make([]RowWrite, tab.NumRows)
	for i := 0; i < tab.NumRows; i++ {
		writes[i] = RowWrite{Row: uint64(i), Vals: tab.Row(i)}
	}
	return writes
}

// shareSet classifies a batch answer against the two reference share sets:
// every key's share must match the SAME reference (a blend of the two
// table states inside one batch is a torn snapshot).
func shareSet(got [][]uint32, refA, refB [][]uint32) (string, error) {
	matches := func(ref [][]uint32) bool {
		for q := range got {
			for l := range got[q] {
				if got[q][l] != ref[q][l] {
					return false
				}
			}
		}
		return true
	}
	switch {
	case matches(refA):
		return "A", nil
	case matches(refB):
		return "B", nil
	}
	return "", errors.New("answer matches neither table state — torn or corrupt snapshot")
}

// raceFixture builds the two full-table states and their reference shares
// for a pool of keys.
type raceFixture struct {
	tabA, tabB *strategy.Table
	keys       [][]byte
	refA, refB [][]uint32
}

func buildRaceFixture(t *testing.T, rows, lanes int) *raceFixture {
	t.Helper()
	f := &raceFixture{
		tabA: buildTable(t, rows, lanes, 71),
		tabB: buildTable(t, rows, lanes, 72),
	}
	f.keys, _ = genKeys(t, f.tabA, []uint64{0, uint64(rows) / 3, uint64(rows) / 2, uint64(rows) - 1}, 73)
	for _, tab := range []*strategy.Table{f.tabA, f.tabB} {
		cp, err := strategy.NewTable(rows, lanes)
		if err != nil {
			t.Fatal(err)
		}
		copy(cp.Data, tab.Data)
		ref, err := NewReplica(cp, Config{Party: 0})
		if err != nil {
			t.Fatal(err)
		}
		shares, err := ref.Answer(context.Background(), f.keys)
		if err != nil {
			t.Fatal(err)
		}
		if tab == f.tabA {
			f.refA = shares
		} else {
			f.refB = shares
		}
	}
	return f
}

// TestConcurrentUpdateAnswerRace is the regression test for the historical
// Update/Answer race: writers flip the whole table between two states with
// UpdateBatch while readers hammer Answer. Snapshot pinning must make
// every batch answer exactly one state's shares — and the test must be
// clean under -race, which the old write-rows-in-place path could never
// be for backends sharing one table. (Run it with -race; the CI
// distributed job does.)
func TestConcurrentUpdateAnswerRace(t *testing.T) {
	const rows, lanes = 256, 4
	f := buildRaceFixture(t, rows, lanes)
	cp, err := strategy.NewTable(rows, lanes)
	if err != nil {
		t.Fatal(err)
	}
	copy(cp.Data, f.tabA.Data)
	rep, err := NewReplica(cp, Config{Party: 0})
	if err != nil {
		t.Fatal(err)
	}
	writesA, writesB := fullTableWrites(f.tabA), fullTableWrites(f.tabB)

	var done atomic.Bool
	var wg sync.WaitGroup
	errCh := make(chan error, 16)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				got, err := rep.Answer(context.Background(), f.keys)
				if err != nil {
					errCh <- err
					return
				}
				if _, err := shareSet(got, f.refA, f.refB); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		for i := 0; i < 60; i++ {
			writes := writesB
			if i%2 == 1 {
				writes = writesA
			}
			if _, err := rep.UpdateBatch(context.Background(), writes); err != nil {
				errCh <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// TestClusterConcurrentUpdateAnswerRace is the cluster form of the same
// regression — and the shape that was GENUINELY racy before the store
// refactor: in-process shard replicas sharing one table slice, updates
// landing through one shard's lock while sibling shards streamed the same
// rows with no lock in common. Now each answer merges partials pinned to
// one epoch per shard, the merge refuses mixed epochs, and cluster
// UpdateBatch flips all shards in one handshake: every answer matches
// exactly one of the two table states.
func TestClusterConcurrentUpdateAnswerRace(t *testing.T) {
	const rows, lanes, shards = 256, 4, 4
	f := buildRaceFixture(t, rows, lanes)
	members := make([]ClusterShard, shards)
	for i := range members {
		cp, err := strategy.NewTable(rows, lanes)
		if err != nil {
			t.Fatal(err)
		}
		copy(cp.Data, f.tabA.Data)
		rep, err := NewReplica(cp, Config{Party: 0})
		if err != nil {
			t.Fatal(err)
		}
		members[i] = ClusterShard{Backend: rep, Name: fmt.Sprintf("s%d", i)}
	}
	cluster, err := NewCluster(members...)
	if err != nil {
		t.Fatal(err)
	}
	writesA, writesB := fullTableWrites(f.tabA), fullTableWrites(f.tabB)

	var done atomic.Bool
	var wg sync.WaitGroup
	errCh := make(chan error, 16)
	var mixedRefusals atomic.Int64
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				got, err := cluster.Answer(context.Background(), f.keys)
				if err != nil {
					// A batch that straddles update after update can
					// exhaust its bounded retries; refusing loudly is
					// correct — blending would not be.
					if errors.Is(err, ErrMixedEpoch) {
						mixedRefusals.Add(1)
						continue
					}
					errCh <- err
					return
				}
				if _, err := shareSet(got, f.refA, f.refB); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		for i := 0; i < 40; i++ {
			writes := writesB
			if i%2 == 1 {
				writes = writesA
			}
			if _, err := cluster.UpdateBatch(context.Background(), writes); err != nil {
				errCh <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	t.Logf("mixed-epoch refusals under churn: %d (all refused loudly, none blended)", mixedRefusals.Load())
}
