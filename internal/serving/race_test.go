package serving

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"gpudpf/internal/dpf"
	"gpudpf/internal/engine"
	"gpudpf/internal/strategy"
)

// TestConcurrentEngineServing drives the full concurrent request path —
// many goroutines submitting mixed-size batches through a Batcher backed
// by an engine.Replica, with concurrent row updates in flight — and
// asserts every answer matches the sequential single-shard reference.
// Run under -race (the CI configuration) this pins the locking story of
// the whole serving stack.
func TestConcurrentEngineServing(t *testing.T) {
	const rows, lanes = 512, 4
	tab, err := strategy.NewTable(rows, lanes)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := range tab.Data {
		tab.Data[i] = rng.Uint32()
	}

	// The engine under test: sharded, engine-backed batcher.
	eng, err := engine.NewReplica(tab, engine.Config{Party: 0})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBatcher(Policy{MaxBatch: 16, MaxDelay: 2 * time.Millisecond}, func(batch [][]byte) ([][]uint32, error) {
		return eng.Answer(context.Background(), batch)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	// The sequential reference: its own unsharded replica over a snapshot
	// of the table. The concurrent updates below rewrite rows with their
	// existing values — a semantic no-op (so shares stay comparable; a DPF
	// share depends on every row) that still exercises the full
	// Update/Answer write-lock path.
	refTab, err := strategy.NewTable(rows, lanes)
	if err != nil {
		t.Fatal(err)
	}
	copy(refTab.Data, tab.Data)
	snapshot := make([]uint32, len(tab.Data))
	copy(snapshot, tab.Data)
	ref, err := engine.NewReplica(refTab, engine.Config{Party: 0})
	if err != nil {
		t.Fatal(err)
	}

	// Pre-generate keys for a pool of queried indices and the expected
	// sequential shares.
	prg := dpf.NewAESPRG()
	const poolSize = 24
	keyPool := make([][]byte, poolSize)
	keyRng := rand.New(rand.NewSource(2))
	for i := range keyPool {
		k0, _, err := dpf.Gen(prg, uint64(keyRng.Intn(rows)), tab.Bits(), []uint32{1}, keyRng)
		if err != nil {
			t.Fatal(err)
		}
		keyPool[i], err = k0.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
	}
	want := make([][]uint32, poolSize)
	for i, raw := range keyPool {
		ans, err := ref.Answer(context.Background(), [][]byte{raw})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = ans[0]
	}

	const workers = 8
	const perWorker = 20
	var wg, uwg sync.WaitGroup
	// An updater continuously rewrites random rows (with their snapshot
	// values) to hammer the Update/Answer serialization.
	stop := make(chan struct{})
	uwg.Add(1)
	go func() {
		defer uwg.Done()
		urng := rand.New(rand.NewSource(3))
		for {
			select {
			case <-stop:
				return
			default:
			}
			r := urng.Intn(rows)
			if _, err := eng.UpdateBatch(context.Background(), []engine.RowWrite{{Row: uint64(r), Vals: snapshot[r*lanes : (r+1)*lanes]}}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	// Submitters: mixed-size bursts (1, SubmitAll of 3, 7, ...).
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			srng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < perWorker; i++ {
				n := 1 + srng.Intn(7)
				idxs := make([]int, n)
				keys := make([][]byte, n)
				for j := range keys {
					idxs[j] = srng.Intn(poolSize)
					keys[j] = keyPool[idxs[j]]
				}
				answers, err := b.SubmitAll(keys)
				if err != nil {
					t.Error(err)
					return
				}
				for j, ans := range answers {
					for l := range ans {
						if ans[l] != want[idxs[j]][l] {
							t.Errorf("worker %d burst %d key %d lane %d: %d != sequential %d",
								w, i, j, l, ans[l], want[idxs[j]][l])
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	uwg.Wait()
}
