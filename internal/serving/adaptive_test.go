package serving

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"gpudpf/internal/dpf"
	"gpudpf/internal/engine"
	"gpudpf/internal/strategy"
)

// TestAutoTuneBatchMonotonicInLoad: the tuned batch size never shrinks as
// offered load grows (the adaptive analogue of
// TestSimulateBatchGrowsWithLoad), and every tuned policy is valid with
// its deadline inside the SLO budget.
func TestAutoTuneBatchMonotonicInLoad(t *testing.T) {
	lat := modelLatency(t)
	const slo = 200 * time.Millisecond
	prev := 0
	for _, qps := range []float64{10, 25, 50, 100, 200, 400, 800, 1600, 3200, 6400} {
		p := AutoTune(qps, slo, 128, lat)
		if err := p.Validate(); err != nil {
			t.Fatalf("qps %.0f: invalid tuned policy: %v", qps, err)
		}
		if p.MaxBatch < prev {
			t.Fatalf("qps %.0f: tuned batch %d shrank below %d at lower load", qps, p.MaxBatch, prev)
		}
		if p.MaxDelay > slo/2 {
			t.Fatalf("qps %.0f: tuned delay %v exceeds half the %v SLO", qps, p.MaxDelay, slo)
		}
		prev = p.MaxBatch
	}
	if prev <= 1 {
		t.Fatalf("tuned batch never grew above %d across a 640× load range", prev)
	}
}

// TestAutoTuneDelayCappedByArrivalGap: the tuned deadline must track the
// observed arrival stream, not just the SLO budget — a batch of b at rate
// qps fills in about b/qps, and waiting past two fill times parks sparse
// traffic for a deadline the stream can never fill (the 176ms-p50 failure
// mode behind a small connection pool). Removing the cap makes low-rate,
// generous-SLO points blow straight through this bound to slo/2.
func TestAutoTuneDelayCappedByArrivalGap(t *testing.T) {
	lat := modelLatency(t)
	for _, slo := range []time.Duration{200 * time.Millisecond, 2 * time.Second} {
		for _, qps := range []float64{5, 50, 500, 5000} {
			p := AutoTune(qps, slo, 128, lat)
			if err := p.Validate(); err != nil {
				t.Fatalf("slo %v qps %.0f: invalid tuned policy: %v", slo, qps, err)
			}
			cap := time.Duration(2 * float64(p.MaxBatch) / qps * float64(time.Second))
			if cap < 100*time.Microsecond {
				cap = 100 * time.Microsecond
			}
			if p.MaxDelay > cap {
				t.Errorf("slo %v qps %.0f: tuned delay %v exceeds the %v fill-time cap (batch %d)",
					slo, qps, p.MaxDelay, cap, p.MaxBatch)
			}
		}
	}
}

// TestAutoTuneMeetsSLOWhenFeasible: wherever ANY static MaxBatch choice
// meets the p99 SLO under the Simulate model, the auto-tuned policy meets
// it too — auto-tuning may shed load it cannot carry, but it must never
// lose to a static policy that was available.
func TestAutoTuneMeetsSLOWhenFeasible(t *testing.T) {
	lat := modelLatency(t)
	const slo = 200 * time.Millisecond
	const dur = 2 * time.Second
	statics := []int{1, 2, 4, 8, 16, 32, 64, 128}
	for _, qps := range []float64{50, 200, 400, 800, 1200} {
		feasible := false
		for _, mb := range statics {
			rng := rand.New(rand.NewSource(int64(qps) + int64(mb)))
			p, err := Simulate(rng, qps, dur, Policy{MaxBatch: mb, MaxDelay: 50 * time.Millisecond}, lat)
			if err != nil {
				t.Fatal(err)
			}
			if p.P99 <= slo {
				feasible = true
				break
			}
		}
		if !feasible {
			continue // over the device's capacity — admission control's job
		}
		tuned := AutoTune(qps, slo, 128, lat)
		rng := rand.New(rand.NewSource(int64(qps)))
		p, err := Simulate(rng, qps, dur, tuned, lat)
		if err != nil {
			t.Fatal(err)
		}
		if p.P99 > slo {
			t.Errorf("qps %.0f: tuned policy %+v has p99 %v over the %v SLO a static policy could meet",
				qps, tuned, p.P99, slo)
		}
	}
}

// TestBatcherAdmissionControl: past MaxQueue admitted-but-unfinished
// requests, Submit sheds immediately with ErrOverloaded; once the backlog
// drains, admission resumes; the counters record both outcomes.
func TestBatcherAdmissionControl(t *testing.T) {
	entered := make(chan struct{}, 8)
	release := make(chan struct{})
	handler := func(batch [][]byte) ([][]uint32, error) {
		entered <- struct{}{}
		<-release
		out := make([][]uint32, len(batch))
		for i := range out {
			out[i] = []uint32{1}
		}
		return out, nil
	}
	b, err := NewBatcher(Policy{MaxBatch: 1, MaxDelay: time.Hour, MaxQueue: 2}, handler)
	if err != nil {
		t.Fatal(err)
	}
	defer close(release)
	defer b.Close()

	results := make(chan error, 2)
	go func() { _, err := b.SubmitAll([][]byte{[]byte{1}}); results <- err }()
	<-entered // first request is in service
	go func() { _, err := b.SubmitAll([][]byte{[]byte{2}}); results <- err }()
	waitFor(t, func() bool { a, _ := b.Counts(); return a == 2 })

	// Queue holds 2 (one in service, one pending): the third sheds, fast.
	start := time.Now()
	if _, err := b.SubmitAll([][]byte{[]byte{3}}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("expected ErrOverloaded, got %v", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("shed took %v; admission must fail fast, not queue", d)
	}

	release <- struct{}{} // finish request 1
	<-entered             // request 2 enters service
	release <- struct{}{} // finish request 2
	for i := 0; i < 2; i++ {
		if err := <-results; err != nil {
			t.Fatalf("admitted request failed: %v", err)
		}
	}

	// Backlog drained: admission resumes.
	go func() { <-entered; release <- struct{}{} }()
	if _, err := b.SubmitAll([][]byte{[]byte{4}}); err != nil {
		t.Fatalf("post-drain submit failed: %v", err)
	}
	accepted, shed := b.Counts()
	if accepted != 3 || shed != 1 {
		t.Fatalf("counts accepted=%d shed=%d, want 3/1", accepted, shed)
	}
	if b.Arrivals() != 4 {
		t.Fatalf("arrivals %d, want 4", b.Arrivals())
	}
}

// TestBatcherSetPolicy: the policy can be swapped at runtime, invalid
// swaps are refused, and Policy reflects the live value.
func TestBatcherSetPolicy(t *testing.T) {
	b, err := NewBatcher(Policy{MaxBatch: 4, MaxDelay: time.Millisecond}, func(batch [][]byte) ([][]uint32, error) {
		return make([][]uint32, len(batch)), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	next := Policy{MaxBatch: 16, MaxDelay: 5 * time.Millisecond, MaxQueue: 32}
	if err := b.SetPolicy(next); err != nil {
		t.Fatal(err)
	}
	if got := b.Policy(); got != next {
		t.Fatalf("Policy() = %+v, want %+v", got, next)
	}
	if err := b.SetPolicy(Policy{MaxBatch: 0, MaxDelay: time.Millisecond}); err == nil {
		t.Fatal("invalid policy accepted")
	}
	if got := b.Policy(); got != next {
		t.Fatalf("rejected SetPolicy still changed the policy to %+v", got)
	}
}

// TestLatencyFitLearnsCurve: the online fit recovers a known affine
// batch-latency curve from observations and withholds a model until it
// has seen enough.
func TestLatencyFitLearnsCurve(t *testing.T) {
	var fit latencyFit
	curve := func(b int) time.Duration { return time.Millisecond + time.Duration(b)*500*time.Microsecond }
	if fit.model() != nil {
		t.Fatal("fit produced a model with zero observations")
	}
	for round := 0; round < 10; round++ {
		for _, b := range []int{1, 4, 8, 16, 32} {
			fit.observe(b, curve(b))
		}
	}
	m := fit.model()
	if m == nil {
		t.Fatal("fit withheld a model after 50 observations")
	}
	for _, b := range []int{2, 10, 24} {
		got, want := m(b), curve(b)
		if got < want*8/10 || got > want*12/10 {
			t.Fatalf("model(%d) = %v, want within 20%% of %v", b, got, want)
		}
	}
}

// TestFrontAdaptiveRetune: a Front under sustained heavy load re-tunes
// its policy — batch size grows from the initial 1 — and its stats count
// the traffic.
func TestFrontAdaptiveRetune(t *testing.T) {
	const rows, lanes = 512, 4
	tab, err := strategy.NewTable(rows, lanes)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.NewReplica(tab, engine.Config{Party: 0})
	if err != nil {
		t.Fatal(err)
	}
	// An analytic curve makes the tuning deterministic in the measured
	// rate: at the drive rate below, batch 1 is over budget and larger
	// batches are not.
	curve := func(b int) time.Duration { return 500*time.Microsecond + time.Duration(b)*10*time.Microsecond }
	f, err := NewFront(FrontConfig{
		Policy:      Policy{MaxBatch: 1, MaxDelay: time.Millisecond, MaxQueue: 4096},
		SLO:         50 * time.Millisecond,
		MaxBatchCap: 64,
		Latency:     curve,
		Retune:      10 * time.Millisecond,
	}, eng)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	prg := dpf.NewAESPRG()
	keyRng := rand.New(rand.NewSource(7))
	k0, _, err := dpf.Gen(prg, 3, tab.Bits(), []uint32{1}, keyRng)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := k0.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := f.Answer([][]byte{raw}); err != nil && !errors.Is(err, ErrOverloaded) {
					t.Error(err)
					return
				}
			}
		}()
	}
	waitFor(t, func() bool { return f.Retunes() > 0 && f.b.Policy().MaxBatch > 1 })
	close(stop)
	for w := 0; w < 4; w++ {
		<-done
	}
	if p := f.b.Policy(); p.MaxQueue != 4096 {
		t.Fatalf("retune dropped the admission bound: %+v", p)
	}
	if s := f.ServingStats(); s.Accepted == 0 {
		t.Fatalf("front served traffic but stats say %+v", s)
	}
}

// waitFor polls cond for up to 5s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(time.Millisecond)
	}
}
