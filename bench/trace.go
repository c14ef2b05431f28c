package main

import (
	"context"
	"encoding/json"
	"os"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gpudpf/internal/dpf"
	"gpudpf/internal/engine"
	"gpudpf/internal/gpu"
	"gpudpf/internal/pir"
	"gpudpf/internal/serving"
	"gpudpf/internal/shardnet"
	"gpudpf/internal/strategy"
)

// Span names, one per layer boundary the bench can reach from outside.
const (
	spanClient   = "client.request" // root: pir.Remote.Answer, send to full reply
	spanUpdate   = "client.update"  // root: pir.Remote.UpdateBatch
	spanFront    = "serving.front"  // serving.Front.Answer as pir.Serve calls it
	spanFrontUpd = "serving.update" // serving.Front.UpdateBatch
	spanEngine   = "engine.answer"  // Backend.Answer as the batcher calls it
	spanStrategy = "strategy.run"   // Strategy.RunRangeInto
	spanRPC      = "shardnet.rpc"   // shardnet.Client.AnswerRangeEpoch
	spanNode     = "shardnet.node"  // the node replica's AnswerRangeEpoch
)

// span is one timed call into a layer. Times are nanoseconds since the
// tracer was made.
type span struct {
	ID     uint32 `json:"id"`
	Parent uint32 `json:"parent"` // 0 for a root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Request identifies the client request the span worked for: the
	// FNV-1a hash of the request's first key, which is all a server-side
	// decorator needs to find its parent across the TCP connection.
	Request uint64 `json:"request"`
	// Keys is the batch size, where the layer sees one.
	Keys int `json:"keys,omitempty"`
	// Requests lists every request with a key in an engine batch (a batch
	// can mix two connections' keys).
	Requests []uint64 `json:"requests,omitempty"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// reqSpans are the latest span ids recorded for one request, per layer, so
// the next layer down can name its parent.
type reqSpans struct {
	root, front uint32
	rpc         [2]uint32
}

// tracer keeps spans in memory until the round ends. It records only
// while on, so warm-up and read-back requests leave no spans.
type tracer struct {
	t0     time.Time
	on     atomic.Bool
	nextID atomic.Uint32

	mu    sync.Mutex
	spans []span
	owner map[uint64]uint64 // key hash → request id
	reqs  map[uint64]*reqSpans
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), owner: map[uint64]uint64{}, reqs: map[uint64]*reqSpans{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) record(s span) {
	s.End = t.now()
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// ownerOf resolves a key to the request that sent it (0 if unknown).
func (t *tracer) ownerOf(key []byte) uint64 {
	h := hashBytes(key)
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.owner[h]
}

func (t *tracer) spansOf(req uint64) reqSpans {
	t.mu.Lock()
	defer t.mu.Unlock()
	if r := t.reqs[req]; r != nil {
		return *r
	}
	return reqSpans{}
}

func (t *tracer) setSpans(req uint64, set func(*reqSpans)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	r := t.reqs[req]
	if r == nil {
		r = &reqSpans{}
		t.reqs[req] = r
	}
	set(r)
}

func hashBytes(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h
}

// writesID identifies an update request by its first write.
func writesID(writes []engine.RowWrite) uint64 {
	w := writes[0]
	return hashBytes([]byte{byte(w.Row), byte(w.Row >> 8), byte(w.Row >> 16), byte(w.Row >> 24),
		byte(w.Vals[0]), byte(w.Vals[0] >> 8), byte(w.Vals[0] >> 16), byte(w.Vals[0] >> 24), 'u'})
}

// scope hands the span a serialized layer is inside to the decorators one
// layer down that see no key bytes (the strategy gets parsed keys).
type scope struct {
	span atomic.Uint32
	req  atomic.Uint64
}

// endpoint is what a load connection drives: *pir.Remote, or tracedRemote
// around it.
type endpoint interface {
	Answer(keys [][]byte) ([][]uint32, error)
	UpdateBatch(writes []engine.RowWrite) (uint64, error)
}

// tracedRemote records the root span of every request a connection sends.
type tracedRemote struct {
	r *pir.Remote
	t *tracer
}

func (c tracedRemote) Answer(keys [][]byte) ([][]uint32, error) {
	if !c.t.on.Load() {
		return c.r.Answer(keys)
	}
	s := span{ID: c.t.nextID.Add(1), Name: spanClient, Request: hashBytes(keys[0]), Keys: len(keys)}
	c.t.mu.Lock()
	c.t.reqs[s.Request] = &reqSpans{root: s.ID}
	for _, k := range keys {
		c.t.owner[hashBytes(k)] = s.Request
	}
	c.t.mu.Unlock()
	s.Start = c.t.now()
	answers, err := c.r.Answer(keys)
	c.t.record(s)
	return answers, err
}

func (c tracedRemote) UpdateBatch(writes []engine.RowWrite) (uint64, error) {
	if !c.t.on.Load() {
		return c.r.UpdateBatch(writes)
	}
	s := span{ID: c.t.nextID.Add(1), Name: spanUpdate, Request: writesID(writes), Keys: len(writes)}
	c.t.setSpans(s.Request, func(r *reqSpans) { r.root = s.ID })
	s.Start = c.t.now()
	epoch, err := c.r.UpdateBatch(writes)
	c.t.record(s)
	return epoch, err
}

// tracedFront is the pir.Answerer handed to pir.Serve in a traced round.
// It forwards the two optional capabilities pir.Serve probes for.
type tracedFront struct {
	f *serving.Front
	t *tracer
}

func (a tracedFront) Answer(keys [][]byte) ([][]uint32, error) {
	if !a.t.on.Load() {
		return a.f.Answer(keys)
	}
	req := a.t.ownerOf(keys[0])
	s := span{ID: a.t.nextID.Add(1), Parent: a.t.spansOf(req).root, Name: spanFront, Request: req, Keys: len(keys)}
	a.t.setSpans(req, func(r *reqSpans) { r.front = s.ID })
	s.Start = a.t.now()
	answers, err := a.f.Answer(keys)
	a.t.record(s)
	return answers, err
}

func (a tracedFront) UpdateBatch(writes []engine.RowWrite) (uint64, error) {
	if !a.t.on.Load() {
		return a.f.UpdateBatch(writes)
	}
	req := writesID(writes)
	s := span{ID: a.t.nextID.Add(1), Parent: a.t.spansOf(req).root, Name: spanFrontUpd, Request: req, Keys: len(writes)}
	s.Start = a.t.now()
	epoch, err := a.f.UpdateBatch(writes)
	a.t.record(s)
	return epoch, err
}

func (a tracedFront) ServingStats() serving.Stats { return a.f.ServingStats() }

// countedBackend is the engine.Backend handed to serving.NewFront in every
// round. Untraced it only counts batches and keys (two atomic adds per
// batch); with a tracer it also records the engine.answer span. It
// forwards every optional capability serving.Front probes for.
type countedBackend struct {
	engine.Backend
	batches, keys atomic.Int64

	t  *tracer // nil in an untraced round
	in *scope  // the batcher runs one batch at a time
}

func (b *countedBackend) Answer(ctx context.Context, keys [][]byte) ([][]uint32, error) {
	b.batches.Add(1)
	b.keys.Add(int64(len(keys)))
	if b.t == nil || !b.t.on.Load() {
		return b.Backend.Answer(ctx, keys)
	}
	s := span{ID: b.t.nextID.Add(1), Name: spanEngine, Keys: len(keys)}
	for _, k := range keys {
		if req := b.t.ownerOf(k); !slices.Contains(s.Requests, req) {
			s.Requests = append(s.Requests, req)
		}
	}
	s.Request = s.Requests[0]
	s.Parent = b.t.spansOf(s.Request).front
	b.in.span.Store(s.ID)
	b.in.req.Store(s.Request)
	s.Start = b.t.now()
	answers, err := b.Backend.Answer(ctx, keys)
	b.t.record(s)
	return answers, err
}

func (b *countedBackend) ValidateKey(raw []byte) error {
	return b.Backend.(engine.KeyValidator).ValidateKey(raw)
}

func (b *countedBackend) UpdateBatch(ctx context.Context, writes []engine.RowWrite) (uint64, error) {
	return b.Backend.(engine.BatchUpdater).UpdateBatch(ctx, writes)
}

func (b *countedBackend) EpochRetries() uint64 {
	if c, ok := engine.AsEpochRetries(b.Backend); ok {
		return c.EpochRetries()
	}
	return 0
}

// tracedStrategy wraps the replica's already worker-bound strategy, so the
// row-block fan-out bound inside it survives (strategy.WithWorkers cannot
// see through a wrapper; wrapping an unbound strategy would silently run
// every tile on one core).
type tracedStrategy struct {
	strategy.Strategy
	t  *tracer
	in *scope // the enclosing engine.answer or shardnet.node span
}

func (s tracedStrategy) RunRangeInto(prg dpf.PRG, keys []*dpf.Key, v strategy.TableView, lo, hi int, ctr *gpu.Counters, dst [][]uint32) error {
	if !s.t.on.Load() {
		return s.Strategy.RunRangeInto(prg, keys, v, lo, hi, ctr, dst)
	}
	sp := span{ID: s.t.nextID.Add(1), Parent: s.in.span.Load(), Name: spanStrategy, Request: s.in.req.Load(), Keys: len(keys)}
	sp.Start = s.t.now()
	err := s.Strategy.RunRangeInto(prg, keys, v, lo, hi, ctr, dst)
	s.t.record(sp)
	return err
}

// tracedShard embeds the shardnet client so every optional engine
// capability (epoch handshake, ping, snapshot transfer, close) still
// resolves on it, and overrides only the answer-range calls.
type tracedShard struct {
	*shardnet.Client
	t    *tracer
	in   *scope // the enclosing engine.answer span
	node int
}

func (c tracedShard) AnswerRangeEpoch(ctx context.Context, keys [][]byte, lo, hi int) ([][]uint32, uint64, bool, error) {
	if !c.t.on.Load() {
		return c.Client.AnswerRangeEpoch(ctx, keys, lo, hi)
	}
	s := span{ID: c.t.nextID.Add(1), Parent: c.in.span.Load(), Name: spanRPC, Request: c.in.req.Load(), Keys: len(keys)}
	c.t.setSpans(s.Request, func(r *reqSpans) { r.rpc[c.node] = s.ID })
	s.Start = c.t.now()
	answers, epoch, ok, err := c.Client.AnswerRangeEpoch(ctx, keys, lo, hi)
	c.t.record(s)
	return answers, epoch, ok, err
}

func (c tracedShard) AnswerRange(ctx context.Context, keys [][]byte, lo, hi int) ([][]uint32, error) {
	answers, _, _, err := c.AnswerRangeEpoch(ctx, keys, lo, hi)
	return answers, err
}

// tracedNode is the node side of tracedShard: the replica a shardnet
// server exposes, with the answer-range call timed. It finds its parent
// RPC span by the first key's hash, the only thing that crossed the wire.
type tracedNode struct {
	*engine.Replica
	t    *tracer
	in   *scope // handed to the node replica's tracedStrategy
	node int
}

func (n tracedNode) AnswerRangeEpoch(ctx context.Context, keys [][]byte, lo, hi int) ([][]uint32, uint64, bool, error) {
	if !n.t.on.Load() {
		return n.Replica.AnswerRangeEpoch(ctx, keys, lo, hi)
	}
	req := n.t.ownerOf(keys[0])
	s := span{ID: n.t.nextID.Add(1), Parent: n.t.spansOf(req).rpc[n.node], Name: spanNode, Request: req, Keys: len(keys)}
	n.in.span.Store(s.ID)
	n.in.req.Store(req)
	s.Start = n.t.now()
	answers, epoch, ok, err := n.Replica.AnswerRangeEpoch(ctx, keys, lo, hi)
	n.t.record(s)
	return answers, epoch, ok, err
}

func (n tracedNode) AnswerRange(ctx context.Context, keys [][]byte, lo, hi int) ([][]uint32, error) {
	answers, _, _, err := n.AnswerRangeEpoch(ctx, keys, lo, hi)
	return answers, err
}

// covered is the part of [lo, hi) the spans cover, counting overlaps once:
// a layer's self time is its span minus this over its children.
func covered(lo, hi int64, spans []*span) int64 {
	iv := make([][2]int64, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	end = lo
	for _, x := range iv {
		if x[1] <= end {
			continue
		}
		total += x[1] - max(x[0], end)
		end = x[1]
	}
	return total
}

// analyze turns a round's spans into the span-derived per-layer metrics
// and the accounting check: each read request's round trip must be the
// sum of the self times of the layers under it.
func analyze(spans []span) map[string]float64 {
	children := map[uint32][]*span{}
	byReq := map[uint64][]*span{} // engine.answer spans by request served
	var roots, engines, rpcs, strats []*span
	for i := range spans {
		s := &spans[i]
		children[s.Parent] = append(children[s.Parent], s)
		switch s.Name {
		case spanClient:
			roots = append(roots, s)
		case spanEngine:
			engines = append(engines, s)
			for _, r := range s.Requests {
				byReq[r] = append(byReq[r], s)
			}
		case spanRPC:
			rpcs = append(rpcs, s)
		case spanStrategy:
			strats = append(strats, s)
		}
	}
	named := func(parent uint32, name string) []*span {
		var out []*span
		for _, c := range children[parent] {
			if c.Name == name {
				out = append(out, c)
			}
		}
		return out
	}
	const ms = 1e-6 // ns → ms

	// Per engine batch: self time, and the blocking chain under it.
	type chain struct{ self, shardSelf, node, strat int64 }
	chains := map[uint32]chain{}
	var engSum, engSelf, stratInEngine float64
	for _, e := range engines {
		var c chain
		if rp := named(e.ID, spanRPC); len(rp) > 0 {
			c.self = e.dur() - covered(e.Start, e.End, rp)
			slow := rp[0]
			for _, r := range rp {
				if r.dur() > slow.dur() {
					slow = r
				}
			}
			if nodes := named(slow.ID, spanNode); len(nodes) > 0 {
				n := nodes[0]
				c.strat = covered(n.Start, n.End, named(n.ID, spanStrategy))
				c.node = n.dur() - c.strat
				c.shardSelf = slow.dur() - n.dur()
			} else {
				c.shardSelf = slow.dur()
			}
		} else {
			c.strat = covered(e.Start, e.End, named(e.ID, spanStrategy))
			c.self = e.dur() - c.strat
		}
		chains[e.ID] = c
		engSum += float64(e.dur())
		engSelf += float64(c.self)
		stratInEngine += float64(c.strat)
	}

	var client, transport, front, servSelf, sum, stratPerReq float64
	n := 0
	for _, c := range roots {
		fs := named(c.ID, spanFront)
		if len(fs) != 1 {
			continue // counted below as unaccounted
		}
		f := fs[0]
		n++
		client += float64(c.dur())
		transport += float64(c.dur() - f.dur())
		front += float64(f.dur())
		es := byReq[c.Request]
		servSelf += float64(f.dur() - covered(f.Start, f.End, es))
		parts := float64(c.dur()-f.dur()) + float64(f.dur()-covered(f.Start, f.End, es))
		for _, e := range es {
			ch := chains[e.ID]
			parts += float64(ch.self + ch.shardSelf + ch.node + ch.strat)
			stratPerReq += float64(ch.strat)
		}
		sum += parts
	}
	// requests_resolved against client.latency_samples says whether every
	// read request found its front span.
	m := map[string]float64{"trace.requests_resolved": float64(n)}
	if n > 0 {
		fn := float64(n)
		m["pir.transport_self_ms_per_request"] = transport / fn * ms
		m["serving.front_ms_per_request"] = front / fn * ms
		m["serving.self_ms_per_request"] = servSelf / fn * ms
		m["trace.client_ms_per_request"] = client / fn * ms
		m["trace.layers_sum_ms_per_request"] = sum / fn * ms
		m["trace.strategy_share_of_client"] = stratPerReq / client
	}
	if len(engines) > 0 {
		fe := float64(len(engines))
		m["engine.answer_ms_per_batch"] = engSum / fe * ms
		m["engine.self_ms_per_batch"] = engSelf / fe * ms
		m["engine.cluster_self_ms_per_batch"] = 0
		if len(rpcs) > 0 {
			m["engine.cluster_self_ms_per_batch"] = engSelf / fe * ms
		}
		m["trace.strategy_share_of_engine"] = stratInEngine / engSum
	}
	if len(strats) > 0 {
		var d float64
		for _, s := range strats {
			d += float64(s.dur())
		}
		m["strategy.run_ms_per_batch"] = d / float64(len(strats)) * ms
	}
	m["shardnet.rpc_ms_p50"], m["shardnet.self_ms_per_rpc"] = 0, 0
	if len(rpcs) > 0 {
		durs := make([]float64, len(rpcs))
		var self float64
		for i, r := range rpcs {
			durs[i] = float64(r.dur()) * ms
			self += float64(r.dur())
			for _, nd := range named(r.ID, spanNode) {
				self -= float64(nd.dur())
			}
		}
		m["shardnet.rpc_ms_p50"] = percentile(durs, 0.50)
		m["shardnet.self_ms_per_rpc"] = self / float64(len(rpcs)) * ms
	}
	return m
}

// writeTrace writes the spans as one JSON document.
func writeTrace(path string, workload string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(struct {
		Workload string `json:"workload"`
		Unit     string `json:"time_unit"`
		Spans    []span `json:"spans"`
	}{workload, "ns since trace start", spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
