// Package serving provides the server-side request path that turns the
// paper's batched DPF kernels into a service: a concurrent batcher that
// groups incoming PIR queries into GPU-sized batches under a size/deadline
// policy and runs one batch per core at a time on the goroutines that
// close them — with bounded-queue admission control so overload sheds
// whole requests instead of collapsing queue latency — and a
// discrete-event simulator that maps offered load to latency percentiles
// on the modeled one-kernel-at-a-time device (the systems story behind "a
// single V100 can serve up to 100,000 queries per second", §1). AutoTune
// closes the loop: it picks the batch policy from a measured arrival rate,
// a latency SLO and a batch-latency model, and Front runs that tuning
// continuously against live traffic.
package serving

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Policy controls batch formation and admission.
type Policy struct {
	// MaxBatch flushes a batch when this many requests are pending.
	MaxBatch int
	// MaxDelay flushes a non-empty batch this long after its oldest
	// request arrived, bounding queueing latency at low load.
	MaxDelay time.Duration
	// MaxQueue, when positive, bounds how many admitted keys may be
	// waiting or in service at once; a request past the bound fails fast
	// and whole with ErrOverloaded instead of queueing behind a saturated
	// device. 0 disables admission control (every request queues).
	MaxQueue int
}

// Validate checks the policy.
func (p Policy) Validate() error {
	if p.MaxBatch < 1 {
		return errors.New("serving: MaxBatch must be >= 1")
	}
	if p.MaxDelay <= 0 {
		return errors.New("serving: MaxDelay must be positive")
	}
	if p.MaxQueue < 0 {
		return errors.New("serving: MaxQueue must be >= 0 (0 = unbounded)")
	}
	return nil
}

// ErrOverloaded is the named fast-fail a request gets when the batcher's
// admission bound (Policy.MaxQueue) is full. It is the graceful-degradation
// contract: a shed request costs the client one round trip and a retry
// decision, not an unbounded queue wait, and the accepted requests behind
// it keep their latency. pir's wire protocol carries it by code, so a
// remote client sees this same named error, not a timeout.
var ErrOverloaded = errors.New("serving: overloaded, request shed")

// Handler executes one formed batch. Request i's response must be placed
// at index i of the returned slice. It is called from up to GOMAXPROCS(0)
// goroutines at once and must be safe for that, as engine.Replica and
// engine.Cluster are (one pinned snapshot per batch, pooled scratch).
type Handler func(batch [][]byte) ([][]uint32, error)

// Batcher groups submitted requests into batches and keeps up to
// GOMAXPROCS(0) of them in flight. The paper batches because the GPU
// executes one kernel at a time (§3.2.1); this device is a multi-core CPU
// whose batches have serial phases, so one batch per core keeps the cores
// busy. There is no worker goroutine: whoever closes a batch — the
// submitting goroutine or the deadline timer's — runs the handler and
// delivers the results. Safe for concurrent use.
type Batcher struct {
	handler Handler

	mu      sync.Mutex
	policy  Policy
	pending []pendingKey
	// queued counts admitted-but-uncompleted keys (pending, waiting for an
	// in-flight slot, or in service) — what Policy.MaxQueue bounds.
	queued int
	timer  *time.Timer
	closed bool

	// slots bounds concurrent handler calls: GOMAXPROCS(0), read once.
	slots chan struct{}
	// running tracks batches taken under mu, until delivered; for Close.
	running sync.WaitGroup

	// arrivals counts every submitted key (shed included) — the
	// offered-rate signal the adaptive front door tunes against. accepted
	// and shed split the outcomes for the serving stats.
	arrivals atomic.Uint64
	accepted atomic.Uint64
	shed     atomic.Uint64

	// fit learns the device's batch-latency curve from served batches.
	fit latencyFit
}

// pendingKey is one admitted key. A request's keys sit adjacent in pending,
// so each batch that carries some of them holds one contiguous run and
// sends on the request's done channel once. The keys of a request that
// runs the one batch carrying them itself have neither slot nor channel.
type pendingKey struct {
	key  []byte
	dst  *[]uint32  // the key's slot in its request's answers
	done chan error // its request's
}

// NewBatcher builds a batcher; it starts no goroutine.
func NewBatcher(policy Policy, handler Handler) (*Batcher, error) {
	if err := policy.Validate(); err != nil {
		return nil, err
	}
	if handler == nil {
		return nil, errors.New("serving: nil handler")
	}
	return &Batcher{
		policy:  policy,
		handler: handler,
		slots:   make(chan struct{}, runtime.GOMAXPROCS(0)),
	}, nil
}

// Policy returns the batcher's current policy (which SetPolicy — and the
// adaptive front door through it — may change at runtime).
func (b *Batcher) Policy() Policy {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.policy
}

// SetPolicy swaps the batch-formation policy at runtime. The pending
// batch's deadline timer keeps the delay it was armed with; every later
// batch forms under the new policy.
func (b *Batcher) SetPolicy(p Policy) error {
	if err := p.Validate(); err != nil {
		return err
	}
	b.mu.Lock()
	b.policy = p
	b.mu.Unlock()
	return nil
}

// Counts reports the admission outcomes so far, in keys: accepted
// (admitted to a batch, whatever their eventual result) and shed (refused
// with ErrOverloaded at the admission bound).
func (b *Batcher) Counts() (accepted, shed uint64) {
	return b.accepted.Load(), b.shed.Load()
}

// Arrivals reports how many keys have been submitted (accepted or shed) —
// the numerator of a measured offered rate.
func (b *Batcher) Arrivals() uint64 { return b.arrivals.Load() }

// SubmitAll enqueues one request's keys (one TCP request may carry many)
// and blocks until every batch carrying them completes, returning the
// answers in key order. Under one lock hold the request is admitted or
// shed whole — past Policy.MaxQueue it fails with ErrOverloaded and none
// of its keys is computed; a request larger than the bound is admitted
// when nothing else is queued rather than starved — and its keys are
// appended adjacent, a batch cut each time MaxBatch are pending: a request
// of MaxBatch keys is exactly one batch. The caller runs the last batch it
// cuts itself; earlier ones get goroutines of their own. A request whose
// keys complete the pending batch is answered straight from the handler's
// answers.
func (b *Batcher) SubmitAll(keys [][]byte) ([][]uint32, error) {
	if len(keys) == 0 {
		return [][]uint32{}, nil
	}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil, errors.New("serving: batcher closed")
	}
	b.arrivals.Add(uint64(len(keys)))
	if q := b.policy.MaxQueue; q > 0 && b.queued > 0 && b.queued+len(keys) > q {
		b.mu.Unlock()
		b.shed.Add(uint64(len(keys)))
		return nil, ErrOverloaded
	}
	b.queued += len(keys)
	b.accepted.Add(uint64(len(keys)))
	defer func() {
		b.mu.Lock()
		b.queued -= len(keys)
		b.mu.Unlock()
	}()
	if len(b.pending)+len(keys) == b.policy.MaxBatch {
		// The keys end the pending batch, which this goroutine runs: the
		// request's answers are the tail of the handler's.
		for _, key := range keys {
			b.pending = append(b.pending, pendingKey{key: key})
		}
		batch := b.takeLocked()
		b.mu.Unlock()
		answers, err := b.run(batch)
		if err != nil {
			return nil, err
		}
		return answers[len(answers)-len(keys):], nil
	}
	answers := make([][]uint32, len(keys))
	// Sized so no batch blocks reporting to this request: its keys ride in
	// at most a partial first batch, len(keys)/MaxBatch whole ones and a
	// pending remainder.
	done := make(chan error, len(keys)/b.policy.MaxBatch+2)
	var batch []pendingKey
	parts := 0 // batches that carry this request's keys
	for i, key := range keys {
		b.pending = append(b.pending, pendingKey{key: key, dst: &answers[i], done: done})
		if len(b.pending) >= b.policy.MaxBatch {
			if batch != nil {
				go b.run(batch)
			}
			batch = b.takeLocked()
			parts++
		}
	}
	if len(b.pending) > 0 {
		parts++
		if b.timer == nil {
			b.timer = time.AfterFunc(b.policy.MaxDelay, b.deadlineFlush)
		}
	}
	b.mu.Unlock()
	b.run(batch)
	var err error
	for ; parts > 0; parts-- {
		if e := <-done; err == nil {
			err = e
		}
	}
	if err != nil {
		return nil, err
	}
	return answers, nil
}

// deadlineFlush runs on the timer's goroutine; after Close nothing is pending.
func (b *Batcher) deadlineFlush() {
	b.mu.Lock()
	batch := b.takeLocked()
	b.mu.Unlock()
	b.run(batch)
}

// takeLocked detaches the pending batch and registers it as running. Caller
// holds mu; the returned batch must be passed to run after unlocking.
func (b *Batcher) takeLocked() []pendingKey {
	if b.timer != nil {
		b.timer.Stop()
		b.timer = nil
	}
	batch := b.pending
	b.pending = nil
	if len(batch) > 0 {
		b.running.Add(1)
	}
	return batch
}

// run executes one taken batch on the calling goroutine, inside an
// in-flight slot, reports to every request with keys in it, and returns
// the handler's answers for the caller's own keys.
func (b *Batcher) run(batch []pendingKey) ([][]uint32, error) {
	if len(batch) == 0 {
		return nil, nil
	}
	defer b.running.Done()
	keys := make([][]byte, len(batch))
	for i, p := range batch {
		keys[i] = p.key
	}
	b.slots <- struct{}{}
	start := time.Now()
	answers, err := b.handler(keys)
	if err == nil {
		b.fit.observe(len(batch), time.Since(start))
	}
	<-b.slots
	if err == nil && len(answers) != len(batch) {
		err = errors.New("serving: handler returned wrong answer count")
	}
	for i, p := range batch {
		if p.done == nil {
			continue // the caller's own
		}
		if err == nil {
			*p.dst = answers[i]
		}
		if i+1 == len(batch) || batch[i+1].done != p.done {
			p.done <- err
		}
	}
	return answers, err
}

// LatencyModel returns the batch-latency curve learned from served
// batches (an exponentially-weighted affine fit service ≈ a + c·batch),
// or nil until enough batches have been observed. It is what the adaptive
// front door feeds AutoTune when no analytic model was configured.
func (b *Batcher) LatencyModel() BatchLatency { return b.fit.model() }

// Close runs any pending batch and waits for every batch in flight.
// Submissions after Close fail; in-flight submissions complete, and no
// goroutine the batcher started outlives it.
func (b *Batcher) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	batch := b.takeLocked()
	b.mu.Unlock()
	b.run(batch)
	b.running.Wait()
}

// latencyFit is an online, exponentially-decayed least-squares fit of
// batch service time against batch size: service(b) ≈ a + c·b. The decay
// keeps the fit tracking the live table shape and cache state rather than
// averaging over the process's whole history.
type latencyFit struct {
	mu sync.Mutex
	// Decayed sums of weight, x (batch size), y (seconds), x², x·y.
	w, sx, sy, sxx, sxy float64
	n                   int
}

// fitDecay is the per-observation decay; ~0.98 keeps roughly the last few
// hundred batches relevant.
const fitDecay = 0.98

// fitMinObservations is how many batches the fit wants before it trusts
// its curve.
const fitMinObservations = 8

func (f *latencyFit) observe(batch int, d time.Duration) {
	x, y := float64(batch), d.Seconds()
	f.mu.Lock()
	f.w = f.w*fitDecay + 1
	f.sx = f.sx*fitDecay + x
	f.sy = f.sy*fitDecay + y
	f.sxx = f.sxx*fitDecay + x*x
	f.sxy = f.sxy*fitDecay + x*y
	f.n++
	f.mu.Unlock()
}

func (f *latencyFit) model() BatchLatency {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.n < fitMinObservations || f.w <= 0 {
		return nil
	}
	// Slope from the decayed covariance; a degenerate spread (all batches
	// the same size) falls back to a constant-latency model.
	var a, c float64
	den := f.w*f.sxx - f.sx*f.sx
	if den > 1e-9 {
		c = (f.w*f.sxy - f.sx*f.sy) / den
		a = (f.sy - c*f.sx) / f.w
	}
	if c < 0 || a < 0 {
		c = 0
		a = f.sy / f.w
	}
	return func(batch int) time.Duration {
		return time.Duration((a + c*float64(batch)) * float64(time.Second))
	}
}
