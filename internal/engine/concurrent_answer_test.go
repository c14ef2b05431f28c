package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"gpudpf/internal/store"
	"gpudpf/internal/strategy"
)

// TestConcurrentAnswerBatches is the contract serving.Batcher relies on now
// that it keeps one batch in flight per core: a backend answers several
// batches at once, beside a stream of UpdateBatch epochs, and every batch
// comes back bit-identical to the same keys answered alone, by a fresh
// single-threaded replica, over the table as it stood at the batch's
// epoch. It is checked for a replica over a RAM table, over a RAM table
// whose pages were written before the run (so its epochs map pooled pages
// and reused windows of the adopted array), over a paged file, and for a
// 2-node cluster. Run under -race this is what stands in for a lock around
// the handler.
func TestConcurrentAnswerBatches(t *testing.T) {
	const seed = 0x18c0ffee
	const rows, lanes, epochs, batches = 512, 8, 24, 4
	rng := rand.New(rand.NewPCG(seed, 1))

	// The table at every epoch, the update that leads to each, and the
	// batches' answers at every epoch.
	states := []*strategy.Table{buildTable(t, rows, lanes, 91)}
	updates := make([][]RowWrite, epochs)
	for e := range updates {
		next := cloneTable(t, states[e])
		for w := 1 + rng.IntN(8); w > 0; w-- {
			row := rng.IntN(rows)
			for l := range next.Row(row) {
				next.Row(row)[l] = rng.Uint32()
			}
		}
		// One write per touched row, in row order, holding the row's final
		// content.
		for row := 0; row < rows; row++ {
			if !slices.Equal(next.Row(row), states[e].Row(row)) {
				updates[e] = append(updates[e], RowWrite{Row: uint64(row), Vals: next.Row(row)})
			}
		}
		states = append(states, next)
	}
	keys := make([][][]byte, batches)
	for b := range keys {
		indices := make([]uint64, 1+rng.IntN(7))
		for i := range indices {
			indices[i] = uint64(rng.IntN(rows))
		}
		keys[b], _ = genKeys(t, states[0], indices, int64(100+b))
	}
	want := make([][][][]uint32, len(states)) // [epoch][batch][key][lane]
	for e, tab := range states {
		alone, err := NewReplica(cloneTable(t, tab), Config{Party: 0, Strategy: sequential})
		if err != nil {
			t.Fatal(err)
		}
		for b := range keys {
			shares, err := alone.Answer(context.Background(), keys[b])
			if err != nil {
				t.Fatal(err)
			}
			want[e] = append(want[e], shares)
		}
	}

	// answerFn answers one batch and brackets the epoch it was computed
	// at: a replica reports it, a cluster front does not, so there it is
	// any epoch between the last commit acknowledged before the call and
	// the last one begun before it returned.
	type answerFn func(keys [][]byte) (answers [][]uint32, lo, hi uint64, err error)
	var begun, committed atomic.Uint64
	replicaAnswer := func(r *Replica) answerFn {
		return func(keys [][]byte) ([][]uint32, uint64, uint64, error) {
			answers, epoch, _, err := r.AnswerRangeEpoch(context.Background(), keys, 0, rows)
			return answers, epoch, epoch, err
		}
	}
	ram := func() *Replica {
		r, err := NewReplica(cloneTable(t, states[0]), Config{Party: 0})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	for _, backend := range []struct {
		name  string
		build func() (answerFn, BatchUpdater)
	}{
		{"ram", func() (answerFn, BatchUpdater) { r := ram(); return replicaAnswer(r), r }},
		{"written-ram", func() (answerFn, BatchUpdater) {
			// Three writes of rows' own content: the epochs run three
			// ahead of the reference's, over the same table.
			const ahead = 3
			r := ram()
			for i := range ahead {
				if _, err := r.UpdateBatch(context.Background(), []RowWrite{{Row: uint64(i), Vals: states[0].Row(i)}}); err != nil {
					t.Fatal(err)
				}
			}
			answer := replicaAnswer(r)
			return func(keys [][]byte) ([][]uint32, uint64, uint64, error) {
				answers, lo, hi, err := answer(keys)
				return answers, lo - ahead, hi - ahead, err
			}, aheadUpdater{r, ahead}
		}},
		{"paged", func() (answerFn, BatchUpdater) {
			path := filepath.Join(t.TempDir(), "table.gpdf")
			if err := store.WriteTableFile(path, states[0]); err != nil {
				t.Fatal(err)
			}
			// A cache a quarter of the table: concurrent batches evict each
			// other's pages.
			pb, err := store.OpenPaged(path, store.PagedConfig{PageBytes: 1 << 10, CacheBytes: rows * lanes})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { pb.Close() })
			st, err := store.NewPaged(pb)
			if err != nil {
				t.Fatal(err)
			}
			r, err := NewReplicaOverStore(st, Config{Party: 0})
			if err != nil {
				t.Fatal(err)
			}
			return replicaAnswer(r), r
		}},
		{"cluster", func() (answerFn, BatchUpdater) {
			members := make([]ClusterShard, 2)
			for i := range members {
				r, err := NewReplica(cloneTable(t, states[0]), Config{Party: 0})
				if err != nil {
					t.Fatal(err)
				}
				members[i] = ClusterShard{Backend: r, Name: fmt.Sprintf("node%d", i)}
			}
			c, err := NewCluster(members...)
			if err != nil {
				t.Fatal(err)
			}
			return func(keys [][]byte) ([][]uint32, uint64, uint64, error) {
				lo := committed.Load()
				answers, err := c.Answer(context.Background(), keys)
				return answers, lo, begun.Load(), err
			}, c
		}},
	} {
		t.Run(backend.name, func(t *testing.T) {
			answer, updater := backend.build()
			begun.Store(0)
			committed.Store(0)
			var done atomic.Bool
			var answered atomic.Int64
			var wg sync.WaitGroup
			for b := 0; b < batches; b++ {
				wg.Add(1)
				go func(b int) {
					defer wg.Done()
					for checked := 0; checked < 8 || !done.Load(); {
						got, lo, hi, err := answer(keys[b])
						if errors.Is(err, ErrMixedEpoch) {
							continue // refused loudly after bounded re-fans, never blended
						}
						if err != nil {
							t.Errorf("seed %#x batch %d: %v", seed, b, err)
							return
						}
						match := false
						for e := lo; e <= hi && !match; e++ {
							match = slices.EqualFunc(got, want[e][b], slices.Equal[[]uint32])
						}
						if !match {
							t.Errorf("seed %#x batch %d: answer differs from the batch answered alone at epochs [%d,%d]", seed, b, lo, hi)
							return
						}
						checked++
						answered.Add(1)
					}
				}(b)
			}
			for e, writes := range updates {
				// Spread the epochs over the answers instead of racing ahead
				// of them.
				for answered.Load() < int64(e) && !t.Failed() {
					runtime.Gosched()
				}
				begun.Store(uint64(e + 1))
				epoch, err := updater.UpdateBatch(context.Background(), writes)
				if err != nil || epoch != uint64(e+1) {
					t.Errorf("seed %#x update %d: epoch %d, %v", seed, e, epoch, err)
					break
				}
				committed.Store(epoch)
			}
			done.Store(true)
			wg.Wait()
		})
	}
}

// aheadUpdater reports a backend's epochs less the ahead it took before.
type aheadUpdater struct {
	BatchUpdater
	ahead uint64
}

func (u aheadUpdater) UpdateBatch(ctx context.Context, writes []RowWrite) (uint64, error) {
	epoch, err := u.BatchUpdater.UpdateBatch(ctx, writes)
	return epoch - u.ahead, err
}

func cloneTable(t *testing.T, tab *strategy.Table) *strategy.Table {
	t.Helper()
	cp, err := strategy.NewTable(tab.NumRows, tab.Lanes)
	if err != nil {
		t.Fatal(err)
	}
	copy(cp.Data, tab.Data)
	return cp
}
