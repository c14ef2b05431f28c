package serving

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gpudpf/internal/model"
)

// echoHandler answers each key with its length; records batch sizes.
func echoHandler(sizes *[]int, mu *sync.Mutex) Handler {
	return func(batch [][]byte) ([][]uint32, error) {
		mu.Lock()
		*sizes = append(*sizes, len(batch))
		mu.Unlock()
		out := make([][]uint32, len(batch))
		for i, k := range batch {
			out[i] = []uint32{uint32(len(k))}
		}
		return out, nil
	}
}

func TestPolicyValidate(t *testing.T) {
	if (Policy{MaxBatch: 0, MaxDelay: time.Millisecond}).Validate() == nil {
		t.Error("MaxBatch=0 accepted")
	}
	if (Policy{MaxBatch: 1, MaxDelay: 0}).Validate() == nil {
		t.Error("MaxDelay=0 accepted")
	}
	if err := (Policy{MaxBatch: 8, MaxDelay: time.Millisecond}).Validate(); err != nil {
		t.Error(err)
	}
}

// TestBatcherFlushOnMaxBatch: MaxBatch concurrent submissions form one
// batch.
func TestBatcherFlushOnMaxBatch(t *testing.T) {
	var sizes []int
	var mu sync.Mutex
	b, err := NewBatcher(Policy{MaxBatch: 4, MaxDelay: time.Hour}, echoHandler(&sizes, &mu))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			ans, err := b.Submit(make([]byte, n+1))
			if err != nil {
				t.Error(err)
				return
			}
			if ans[0] != uint32(n+1) {
				t.Errorf("wrong answer routing: got %d want %d", ans[0], n+1)
			}
		}(i)
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	total := 0
	for _, s := range sizes {
		total += s
	}
	if total != 4 {
		t.Fatalf("served %d requests, want 4", total)
	}
	if len(sizes) != 1 {
		t.Errorf("formed %d batches, want 1 (MaxBatch flush)", len(sizes))
	}
}

// TestBatcherFlushOnDeadline: a lone request is served within ~MaxDelay.
func TestBatcherFlushOnDeadline(t *testing.T) {
	var sizes []int
	var mu sync.Mutex
	b, err := NewBatcher(Policy{MaxBatch: 1000, MaxDelay: 20 * time.Millisecond}, echoHandler(&sizes, &mu))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	start := time.Now()
	if _, err := b.Submit([]byte{1}); err != nil {
		t.Fatal(err)
	}
	if waited := time.Since(start); waited > 500*time.Millisecond {
		t.Errorf("deadline flush took %v", waited)
	}
}

// TestBatcherErrorPropagation: handler errors reach every caller in the
// batch.
func TestBatcherErrorPropagation(t *testing.T) {
	b, err := NewBatcher(Policy{MaxBatch: 2, MaxDelay: time.Millisecond},
		func(batch [][]byte) ([][]uint32, error) { return nil, fmt.Errorf("boom") })
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if _, err := b.Submit([]byte{1}); err == nil {
		t.Error("handler error not propagated")
	}
}

// TestBatcherClose: closing rejects new work but completes in-flight work.
func TestBatcherClose(t *testing.T) {
	var sizes []int
	var mu sync.Mutex
	b, err := NewBatcher(Policy{MaxBatch: 100, MaxDelay: time.Hour}, echoHandler(&sizes, &mu))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := b.Submit([]byte{1, 2, 3})
		done <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the submit enqueue
	b.Close()
	if err := <-done; err != nil {
		t.Errorf("in-flight request failed: %v", err)
	}
	if _, err := b.Submit([]byte{9}); err == nil {
		t.Error("submit after close accepted")
	}
	b.Close() // idempotent
}

// TestBatcherStress hammers the batcher from many goroutines and verifies
// every caller gets its own answer back.
func TestBatcherStress(t *testing.T) {
	var served atomic.Int64
	b, err := NewBatcher(Policy{MaxBatch: 32, MaxDelay: time.Millisecond},
		func(batch [][]byte) ([][]uint32, error) {
			served.Add(int64(len(batch)))
			out := make([][]uint32, len(batch))
			for i, k := range batch {
				out[i] = []uint32{uint32(k[0])}
			}
			return out, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	const workers = 16
	const per = 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id byte) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				ans, err := b.Submit([]byte{id})
				if err != nil {
					t.Error(err)
					return
				}
				if ans[0] != uint32(id) {
					t.Errorf("cross-wired answer: got %d want %d", ans[0], id)
					return
				}
			}
		}(byte(w))
	}
	wg.Wait()
	if served.Load() != workers*per {
		t.Errorf("served %d, want %d", served.Load(), workers*per)
	}
}

// modelLatency builds a BatchLatency from the V100 model on a 1M table.
func modelLatency(t testing.TB) BatchLatency {
	dev := model.TeslaV100()
	s := model.MemBound{K: 128, Fused: true}
	return func(batch int) time.Duration {
		rep, err := s.Model(dev, model.AES128, 20, batch, 64)
		if err != nil {
			t.Fatalf("model: %v", err)
		}
		return rep.Latency
	}
}

// TestSimulateLowLoad: at light load, latency ≈ MaxDelay + single-batch
// service time, and utilization is low.
func TestSimulateLowLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	lat := modelLatency(t)
	policy := Policy{MaxBatch: 64, MaxDelay: 50 * time.Millisecond}
	p, err := Simulate(rng, 20, 5*time.Second, policy, lat)
	if err != nil {
		t.Fatal(err)
	}
	if p.Utilization > 0.7 {
		t.Errorf("low load should not saturate: util %.2f", p.Utilization)
	}
	if p.P50 > 150*time.Millisecond {
		t.Errorf("light-load p50 %v too high", p.P50)
	}
}

// TestSimulateSaturation: offered load beyond the device's modeled
// capacity saturates utilization and blows up tail latency.
func TestSimulateSaturation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	lat := modelLatency(t)
	policy := Policy{MaxBatch: 128, MaxDelay: 50 * time.Millisecond}
	// The 1M-table AES model sustains ≈1.3k QPS; offer 4x that.
	over, err := Simulate(rng, 5200, 2*time.Second, policy, lat)
	if err != nil {
		t.Fatal(err)
	}
	if over.Utilization < 0.95 {
		t.Errorf("overload should saturate: util %.2f", over.Utilization)
	}
	if over.CompletedQPS > 2600 {
		t.Errorf("completed %.0f QPS exceeds modeled capacity band", over.CompletedQPS)
	}
	under, err := Simulate(rng, 400, 2*time.Second, policy, lat)
	if err != nil {
		t.Fatal(err)
	}
	if under.P99 >= over.P99 {
		t.Errorf("p99 should grow with load: %v vs %v", under.P99, over.P99)
	}
}

// TestSimulateBatchGrowsWithLoad: heavier load forms larger batches — the
// mechanism that keeps throughput high (Figure 9a's operational side).
func TestSimulateBatchGrowsWithLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	lat := modelLatency(t)
	policy := Policy{MaxBatch: 128, MaxDelay: 50 * time.Millisecond}
	light, err := Simulate(rng, 50, 3*time.Second, policy, lat)
	if err != nil {
		t.Fatal(err)
	}
	heavy, err := Simulate(rng, 1200, 3*time.Second, policy, lat)
	if err != nil {
		t.Fatal(err)
	}
	if heavy.MeanBatch <= light.MeanBatch {
		t.Errorf("batch size should grow with load: %.1f vs %.1f", light.MeanBatch, heavy.MeanBatch)
	}
	// The adaptive tuner encodes the same mechanism as policy: the batch
	// size it picks for the heavy rate must exceed its pick for the light
	// rate.
	const slo = 200 * time.Millisecond
	tl, th := AutoTune(50, slo, 128, lat), AutoTune(1200, slo, 128, lat)
	if th.MaxBatch <= tl.MaxBatch {
		t.Errorf("AutoTune batch should grow with load: %d (50 qps) vs %d (1200 qps)", tl.MaxBatch, th.MaxBatch)
	}
}

// TestSimulateValidation.
func TestSimulateValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	lat := func(int) time.Duration { return time.Millisecond }
	if _, err := Simulate(rng, 0, time.Second, Policy{MaxBatch: 1, MaxDelay: time.Millisecond}, lat); err == nil {
		t.Error("zero load accepted")
	}
	if _, err := Simulate(rng, 10, 0, Policy{MaxBatch: 1, MaxDelay: time.Millisecond}, lat); err == nil {
		t.Error("zero duration accepted")
	}
	if _, err := Simulate(rng, 10, time.Second, Policy{}, lat); err == nil {
		t.Error("bad policy accepted")
	}
}
