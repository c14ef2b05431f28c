package serving

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"gpudpf/internal/engine"
)

// autoTuneRhoMax is the device-utilization ceiling AutoTune plans for:
// the chosen batch size must serve the offered rate at no more than this
// busy fraction, leaving headroom so queueing delay stays a small
// multiple of one service time instead of diverging near saturation.
const autoTuneRhoMax = 0.7

// AutoTune picks a batch-formation policy for an offered arrival rate, a
// p99 latency SLO, and a batch-latency model: the smallest MaxBatch whose
// modeled utilization at the offered rate stays under autoTuneRhoMax
// (small batches keep per-request latency low; load forces them up — the
// same effect TestSimulateBatchGrowsWithLoad measures, made into policy),
// and a MaxDelay that spends the SLO budget left after service time,
// capped by the batch's expected fill time at the offered rate (two
// inter-arrival gaps per slot) so sparse traffic is never parked for a
// deadline the stream cannot fill. The
// choice is deterministic and the chosen MaxBatch is nondecreasing in
// qps: the feasibility predicate qps·lat(b) ≤ ρmax·b only tightens as the
// rate grows. It is a single server's although Batcher keeps a batch in
// flight per core: one batch already fans out across the cores, so the
// extra ones buy 1.1–1.4×, not c×, and the plan stays conservative. When
// no batch up to maxBatch can carry the rate, the device is simply
// over-committed: AutoTune returns maxBatch (maximum throughput) and
// relies on admission control to shed the excess.
func AutoTune(qps float64, slo time.Duration, maxBatch int, lat BatchLatency) Policy {
	if maxBatch < 1 {
		maxBatch = 1
	}
	if qps < 1 {
		qps = 1
	}
	b := maxBatch
	for cand := 1; cand <= maxBatch; cand++ {
		if qps*lat(cand).Seconds() <= autoTuneRhoMax*float64(cand) {
			b = cand
			break
		}
	}
	// Whatever the SLO has left after two service times (one batch wait
	// behind the device + the batch's own service) may be spent waiting
	// for the batch to fill. The deadline only binds at light load —
	// under backlog, batches fill to MaxBatch while the device is busy —
	// so clamping it into (0, slo/2] costs throughput nothing.
	service := lat(b)
	delay := slo - 2*service
	if delay > slo/2 {
		delay = slo / 2
	}
	if min := slo / 20; delay < min {
		delay = min
	}
	// The SLO budget alone is the wrong cap when the arrival stream cannot
	// fill the batch: a tuned-up MaxBatch behind a small connection pool
	// never reaches MaxBatch, so EVERY batch ate the whole deadline (176ms
	// p50 at 500 QPS where the static 30ms policy was fine). At the
	// observed (EWMA) rate a batch of b fills in about b/qps — waiting much
	// past that buys no extra coalescing — so cap the deadline at two
	// expected fill times: the wait now tracks the measured inter-arrival
	// gap, and at dense arrivals the cap is far below the SLO clamp and
	// never binds.
	if fill := time.Duration(2 * float64(b) / qps * float64(time.Second)); delay > fill {
		delay = fill
	}
	if delay < 100*time.Microsecond {
		delay = 100 * time.Microsecond
	}
	return Policy{MaxBatch: b, MaxDelay: delay}
}

// Stats is the serving front door's observability surface, reported over
// the wire to the load harness (pir's stats op): admission outcomes plus
// the cluster's mixed-epoch re-fan count.
type Stats struct {
	// Accepted counts requests admitted to a batch.
	Accepted uint64
	// Shed counts requests refused with ErrOverloaded at the admission
	// bound.
	Shed uint64
	// EpochRetries counts answer batches the backend re-fanned because
	// their partial shares straddled an update commit (engine.Cluster's
	// ErrMixedEpoch retry path; always 0 for single replicas).
	EpochRetries uint64
}

// StatsSource is implemented by request paths that can report Stats —
// pir.Serve probes its Answerer for it to serve the wire stats op.
type StatsSource interface {
	ServingStats() Stats
}

// FrontConfig assembles a Front.
type FrontConfig struct {
	// Policy is the initial batch policy; its MaxQueue is the admission
	// bound and is preserved across adaptive re-tunes.
	Policy Policy
	// SLO, when positive, enables adaptive tuning: the front re-tunes
	// MaxBatch/MaxDelay against the measured arrival rate so p99 stays
	// inside the SLO where the device can meet it at all. 0 keeps the
	// static policy.
	SLO time.Duration
	// MaxBatchCap bounds the adaptive MaxBatch (0 = the initial policy's
	// MaxBatch).
	MaxBatchCap int
	// Latency is the batch-latency model AutoTune plans with; nil learns
	// the curve from measured batch service times.
	Latency BatchLatency
	// Retune is how often the adaptive loop re-evaluates the policy
	// (0 = 500ms).
	Retune time.Duration
}

// Front is the serving front door cmd/pirserver (and the tests) put in
// front of an engine backend: per-key validation, the batcher with
// admission control, optional adaptive policy tuning against an SLO,
// batch updates, and the stats the wire protocol reports. It is what
// turns "overload" from a collapsing queue into bounded p99 plus named
// shed errors.
type Front struct {
	b         *Batcher
	be        engine.Backend
	validator engine.KeyValidator      // nil when be cannot validate
	retries   engine.EpochRetryCounter // nil when be never re-fans

	cfg     FrontConfig
	retuned atomic.Uint64
	stop    chan struct{}
	done    chan struct{}
}

// NewFront builds the front door over a backend — formed batches execute
// on be.Answer, updates on be.UpdateBatch — asserting for its two optional
// capabilities (key validation, the mixed-epoch retry counter). With
// cfg.SLO set, a background loop re-tunes the batch policy against the
// measured arrival rate every cfg.Retune.
func NewFront(cfg FrontConfig, be engine.Backend) (*Front, error) {
	if be == nil {
		return nil, errors.New("serving: nil backend")
	}
	b, err := NewBatcher(cfg.Policy, func(batch [][]byte) ([][]uint32, error) {
		return be.Answer(context.Background(), batch)
	})
	if err != nil {
		return nil, err
	}
	if cfg.MaxBatchCap <= 0 {
		cfg.MaxBatchCap = cfg.Policy.MaxBatch
	}
	if cfg.Retune <= 0 {
		cfg.Retune = 500 * time.Millisecond
	}
	f := &Front{
		b:    b,
		be:   be,
		cfg:  cfg,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	f.validator, _ = be.(engine.KeyValidator)
	f.retries, _ = engine.AsEpochRetries(be)
	if cfg.SLO > 0 {
		go f.retune()
	} else {
		close(f.done)
	}
	return f, nil
}

// retune is the adaptive loop: every cfg.Retune it folds the interval's
// arrival count into an EWMA rate and re-tunes the batch policy for it.
func (f *Front) retune() {
	defer close(f.done)
	ticker := time.NewTicker(f.cfg.Retune)
	defer ticker.Stop()
	last := f.b.Arrivals()
	var rate float64
	for {
		select {
		case <-f.stop:
			return
		case <-ticker.C:
		}
		now := f.b.Arrivals()
		interval := float64(now-last) / f.cfg.Retune.Seconds()
		last = now
		if rate == 0 {
			rate = interval
		} else {
			rate = 0.7*rate + 0.3*interval
		}
		lat := f.cfg.Latency
		if lat == nil {
			lat = f.b.LatencyModel()
		}
		if rate <= 0 || lat == nil {
			continue // nothing measured yet; keep the current policy
		}
		p := AutoTune(rate, f.cfg.SLO, f.cfg.MaxBatchCap, lat)
		p.MaxQueue = f.cfg.Policy.MaxQueue
		if cur := f.b.Policy(); p.MaxBatch == cur.MaxBatch && p.MaxDelay == cur.MaxDelay {
			continue
		}
		if err := f.b.SetPolicy(p); err == nil {
			f.retuned.Add(1)
		}
	}
}

// Answer feeds a pre-batched request into the shared batching front door:
// each key is validated, then the request is submitted whole, so keys
// from many connections coalesce into the same engine batches. A
// malformed key fails only its own request, never the co-batched requests
// of other clients; a full admission queue fails it with ErrOverloaded.
func (f *Front) Answer(keys [][]byte) ([][]uint32, error) {
	if f.validator != nil {
		for i, key := range keys {
			if err := f.validator.ValidateKey(key); err != nil {
				return nil, fmt.Errorf("key %d: %w", i, err)
			}
		}
	}
	return f.b.SubmitAll(keys)
}

// UpdateBatch installs a row batch as one atomic table epoch on the
// backend (a replica's store epoch, or a cluster's epoch handshake).
// Updates are not batched with answers — they are rare, already batched
// by the caller, and must not wait on a formed answer batch.
func (f *Front) UpdateBatch(writes []engine.RowWrite) (uint64, error) {
	return f.be.UpdateBatch(context.Background(), writes)
}

// ServingStats implements StatsSource.
func (f *Front) ServingStats() Stats {
	accepted, shed := f.b.Counts()
	s := Stats{Accepted: accepted, Shed: shed}
	if f.retries != nil {
		s.EpochRetries = f.retries.EpochRetries()
	}
	return s
}

// InFlight reports how many batches the front door runs at once.
func (f *Front) InFlight() int { return cap(f.b.slots) }

// Retunes reports how many times the adaptive loop changed the policy.
func (f *Front) Retunes() uint64 { return f.retuned.Load() }

// Close stops the adaptive loop and drains the batcher: the pending batch
// and every batch in flight complete.
func (f *Front) Close() {
	select {
	case <-f.stop:
	default:
		close(f.stop)
	}
	<-f.done
	f.b.Close()
}
