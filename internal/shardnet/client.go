package shardnet

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"gpudpf/internal/backoff"
	"gpudpf/internal/engine"
	"gpudpf/internal/frame"
	"gpudpf/internal/gpu"
)

// Options configures a Client's handshake pins and transport limits.
type Options struct {
	// PRG pins the PRF the node must serve ("" = adopt the node's).
	PRG string
	// Early pins the early-termination depth the node must serve:
	// 0 adopts the node's depth, engine.FullDepthKeys pins legacy
	// full-depth wire-v1 keys, positive values pin that resolved depth.
	Early int
	// Party pins which share the node must compute (AdoptParty = either).
	// The zero value pins party 0 — a cluster front always knows its
	// party, and a silent party mismatch yields garbage shares.
	Party int
	// MaxFrame caps frames both ways (0 = DefaultMaxFrame).
	MaxFrame int
	// DialTimeout bounds each TCP connect + handshake (0 = 10s).
	DialTimeout time.Duration
	// RPCTimeout bounds an RPC whose context carries no deadline of its
	// own (0 = DefaultRPCTimeout, negative = unbounded). It is the
	// backstop that keeps a front serving context.Background() batches —
	// cmd/pirserver's cluster mode, Counters — from wedging
	// forever on a node that black-holes mid-RPC; callers with real
	// deadlines are unaffected.
	RPCTimeout time.Duration
	// Redial shapes the exponential backoff applied to fresh dials after
	// a dial failure (zero-valued fields take backoff.Default). While a
	// backoff window is open, RPCs that would need a fresh connection fail
	// fast, naming the remaining wait, instead of hammering a dead node
	// with TCP connects — which is what lets a cluster front's health
	// prober cycle a tripped member cheaply.
	Redial backoff.Policy
	// RedialSeed seeds the redial jitter stream, so tests (and fleets of
	// fronts, seeded distinctly) get decorrelated yet reproducible
	// schedules. Zero is a valid seed.
	RedialSeed uint64
}

// DefaultRPCTimeout caps deadline-less RPCs: generous against the largest
// legitimate batch on a congested link, small against "the operator is
// watching a hung front".
const DefaultRPCTimeout = 30 * time.Second

// Client speaks the shardnet protocol to one node and implements
// engine.Member (configuration and held range from the handshake), so a
// remote shard plugs into an engine.Cluster — or any other Backend
// consumer — exactly like an in-process Replica. Connections
// are pooled: each RPC runs lockstep on its own connection, so concurrent
// calls overlap instead of queueing.
type Client struct {
	addr string
	opts Options
	w    welcome

	mu     sync.Mutex
	idle   []*poolConn
	closed bool

	// Redial backoff state, under its own lock so a backed-off dial check
	// never contends with the pool's hot path.
	bmu         sync.Mutex
	bo          *backoff.Backoff
	retryAt     time.Time
	lastDialErr error
}

// poolConn is one handshaken connection plus its reusable frame buffer.
type poolConn struct {
	conn net.Conn
	br   *bufio.Reader // every read of conn, the handshake's included
	buf  []byte        // the request frame, then the response body
}

// Dial connects to a shardnet node, runs the handshake (failing fast,
// with both sides' values named, on any configuration mismatch), and
// returns a pooled client.
func Dial(addr string, opts Options) (*Client, error) {
	if opts.MaxFrame <= 0 {
		opts.MaxFrame = DefaultMaxFrame
	}
	if opts.DialTimeout <= 0 {
		opts.DialTimeout = 10 * time.Second
	}
	if opts.RPCTimeout == 0 {
		opts.RPCTimeout = DefaultRPCTimeout
	}
	c := &Client{addr: addr, opts: opts}
	pc, w, err := c.dialConn()
	if err != nil {
		return nil, err
	}
	c.w = w
	c.mu.Lock()
	c.idle = append(c.idle, pc)
	c.mu.Unlock()
	return c, nil
}

// dialConn opens and handshakes one connection.
func (c *Client) dialConn() (*poolConn, welcome, error) {
	conn, err := net.DialTimeout("tcp", c.addr, c.opts.DialTimeout)
	if err != nil {
		return nil, welcome{}, fmt.Errorf("shardnet: dial %s: %w", c.addr, err)
	}
	conn.SetDeadline(time.Now().Add(c.opts.DialTimeout))
	h := hello{
		Proto:   protoName,
		Version: ProtocolVersion,
		PRG:     c.opts.PRG,
		Early:   c.opts.Early,
		Party:   c.opts.Party,
	}
	if err := writeHandshake(conn, &h); err != nil {
		conn.Close()
		return nil, welcome{}, fmt.Errorf("shardnet: %s: handshake: %w", c.addr, err)
	}
	br := bufio.NewReader(conn)
	var w welcome
	if err := readHandshake(br, &w); err != nil {
		conn.Close()
		return nil, welcome{}, fmt.Errorf("shardnet: %s: handshake: %w", c.addr, err)
	}
	if w.Err != "" {
		conn.Close()
		return nil, welcome{}, fmt.Errorf("shardnet: %s: %s", c.addr, w.Err)
	}
	// A welcome is peer-controlled input like any other: a nonsense shape
	// or held range must fail here, loudly, not later as a division by
	// zero in a front's batch arithmetic or a silently wrong assignment.
	if w.Rows <= 0 || w.Lanes <= 0 || w.RowLo < 0 || w.RowHi > w.Rows || w.RowLo >= w.RowHi {
		conn.Close()
		return nil, welcome{}, fmt.Errorf("shardnet: %s: handshake advertises an invalid table: %d×%d rows, held range [%d,%d)",
			c.addr, w.Rows, w.Lanes, w.RowLo, w.RowHi)
	}
	conn.SetDeadline(time.Time{})
	return &poolConn{conn: conn, br: br}, w, nil
}

// get pops an idle connection or dials a fresh one. A node restarted with
// a different configuration is caught here: every new connection's
// welcome must match the first — except the advertised table epoch, which
// legitimately moves with every update.
func (c *Client) get() (*poolConn, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, fmt.Errorf("shardnet: %s: client is closed", c.addr)
	}
	if n := len(c.idle); n > 0 {
		pc := c.idle[n-1]
		c.idle = c.idle[:n-1]
		c.mu.Unlock()
		return pc, nil
	}
	c.mu.Unlock()
	// Fail fast inside an open backoff window: a cluster front retrying a
	// dead member must burn microseconds, not a TCP connect timeout per
	// attempt.
	c.bmu.Lock()
	if !c.retryAt.IsZero() {
		if wait := time.Until(c.retryAt); wait > 0 {
			last := c.lastDialErr
			c.bmu.Unlock()
			return nil, fmt.Errorf("shardnet: %s: redial backed off for another %v after: %w",
				c.addr, wait.Round(time.Millisecond), last)
		}
	}
	c.bmu.Unlock()
	pc, w, err := c.dialConn()
	c.bmu.Lock()
	if err != nil {
		if c.bo == nil {
			c.bo = backoff.New(c.opts.Redial, c.opts.RedialSeed)
		}
		c.retryAt = time.Now().Add(c.bo.Next())
		c.lastDialErr = err
		c.bmu.Unlock()
		return nil, err
	}
	if c.bo != nil {
		c.bo.Reset()
	}
	c.retryAt, c.lastDialErr = time.Time{}, nil
	c.bmu.Unlock()
	pinned, got := c.w, w
	pinned.Epoch, pinned.EpochKnown = 0, false
	got.Epoch, got.EpochKnown = 0, false
	if got != pinned {
		pc.conn.Close()
		return nil, fmt.Errorf("shardnet: %s: node configuration changed since first handshake (was %+v, now %+v)", c.addr, pinned, got)
	}
	return pc, nil
}

// put returns a healthy connection to the pool.
func (c *Client) put(pc *poolConn) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		pc.conn.Close()
		return
	}
	c.idle = append(c.idle, pc)
	c.mu.Unlock()
}

// Close closes the pooled connections; in-flight RPCs on checked-out
// connections finish (their connections are then discarded).
func (c *Client) Close() error {
	c.mu.Lock()
	idle := c.idle
	c.idle = nil
	c.closed = true
	c.mu.Unlock()
	for _, pc := range idle {
		pc.conn.Close()
	}
	return nil
}

// do runs one lockstep RPC: request encoded into the connection's
// reusable buffer and sent, frame back into the same buffer, parsed there.
// ctx cancellation and deadlines propagate by slamming the connection
// deadline, so a dead or slow node costs the caller its deadline, not a
// hung goroutine. parse must consume the
// response before do returns (the buffer is pooled with the connection);
// a remote error (the node answered, but with a failure) keeps the
// connection pooled, any transport error retires it.
func (c *Client) do(ctx context.Context, req *rpcRequest, parse func(resp []byte) error) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("shardnet: %s: %w", c.addr, err)
	}
	if _, hasDeadline := ctx.Deadline(); !hasDeadline && c.opts.RPCTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.opts.RPCTimeout)
		defer cancel()
	}
	pc, err := c.get()
	if err != nil {
		return err
	}
	healthy := false
	defer func() {
		if healthy {
			c.put(pc)
		} else {
			pc.conn.Close()
		}
	}()
	if d, ok := ctx.Deadline(); ok {
		// Slightly past the ctx deadline: the AfterFunc below slams the
		// connection the instant ctx actually expires, so the net-layer
		// timeout never races ahead of ctx.Err() becoming non-nil; the
		// grace only bounds the wait if that callback is starved.
		pc.conn.SetDeadline(d.Add(100 * time.Millisecond))
	} else {
		pc.conn.SetDeadline(time.Time{})
	}
	stop := context.AfterFunc(ctx, func() { pc.conn.SetDeadline(time.Unix(1, 0)) })
	ioErr := func(stage string, err error) error {
		if cerr := ctx.Err(); cerr != nil {
			return fmt.Errorf("shardnet: %s: %s: %w", c.addr, stage, cerr)
		}
		return fmt.Errorf("shardnet: %s: %s: %w", c.addr, stage, err)
	}
	pc.buf = appendRequest(frame.Begin(pc.buf), req)
	if err := frame.Write(pc.conn, pc.buf, c.opts.MaxFrame); err != nil {
		stop()
		return ioErr("send", err)
	}
	resp, err := frame.Read(pc.br, c.opts.MaxFrame, &pc.buf)
	if err != nil {
		stop()
		return ioErr("receive", err)
	}
	// stop() reports whether it prevented the cancel callback: if not, the
	// connection's deadline is (or is about to be) slammed — retire it
	// rather than poison the next request.
	healthy = stop()
	if err := parse(resp); err != nil {
		if errors.Is(err, ErrProtocol) {
			healthy = false
			return ioErr("response", err)
		}
		// The node executed the request and reported a failure; surface it
		// with the node named.
		return fmt.Errorf("shardnet: %s: node: %w", c.addr, err)
	}
	return nil
}

// Answer implements engine.Backend: the node evaluates the batch over its
// whole table.
func (c *Client) Answer(ctx context.Context, keys [][]byte) ([][]uint32, error) {
	var answers [][]uint32
	err := c.do(ctx, &rpcRequest{op: opAnswer, keys: keys}, func(resp []byte) error {
		var perr error
		answers, _, _, perr = parseAnswers(resp, opAnswer, len(keys))
		return perr
	})
	if err != nil {
		return nil, err
	}
	return answers, nil
}

// AnswerRangeEpoch implements engine.Member: the node evaluates the batch
// over global rows [lo, hi) only, returning partial shares and the table
// epoch it computed them at — what a cluster front needs to refuse merging
// a batch that straddled an update, or a stale member.
func (c *Client) AnswerRangeEpoch(ctx context.Context, keys [][]byte, lo, hi int) ([][]uint32, uint64, bool, error) {
	if lo < 0 || lo >= hi {
		return nil, 0, false, fmt.Errorf("shardnet: %s: row range [%d,%d) invalid", c.addr, lo, hi)
	}
	var answers [][]uint32
	var epoch uint64
	var hasEpoch bool
	err := c.do(ctx, &rpcRequest{op: opAnswerRange, keys: keys, lo: uint64(lo), hi: uint64(hi)}, func(resp []byte) error {
		var perr error
		answers, epoch, hasEpoch, perr = parseAnswers(resp, opAnswerRange, len(keys))
		return perr
	})
	if err != nil {
		return nil, 0, false, err
	}
	return answers, epoch, hasEpoch, nil
}

// Epoch implements engine.Member: the node's current table epoch.
func (c *Client) Epoch(ctx context.Context) (uint64, error) {
	var epoch uint64
	err := c.do(ctx, &rpcRequest{op: opEpoch}, func(resp []byte) error {
		var perr error
		epoch, perr = parseEpochResp(resp, opEpoch)
		return perr
	})
	return epoch, err
}

// UpdateBatch implements engine.Backend: the writes land atomically
// on the node as one new epoch, which is returned.
func (c *Client) UpdateBatch(ctx context.Context, writes []engine.RowWrite) (uint64, error) {
	var epoch uint64
	err := c.do(ctx, &rpcRequest{op: opUpdateBatch, writes: writes}, func(resp []byte) error {
		var perr error
		epoch, perr = parseEpochResp(resp, opUpdateBatch)
		return perr
	})
	return epoch, err
}

// PrepareUpdate implements engine.Member: stage the writes as the
// given epoch on the node (invisible until CommitUpdate).
func (c *Client) PrepareUpdate(ctx context.Context, epoch uint64, writes []engine.RowWrite) error {
	return c.do(ctx, &rpcRequest{op: opPrepare, epoch: epoch, writes: writes}, func(resp []byte) error {
		return parseOK(resp, opPrepare)
	})
}

// CommitUpdate implements engine.Member.
func (c *Client) CommitUpdate(ctx context.Context, epoch uint64) error {
	return c.do(ctx, &rpcRequest{op: opCommit, epoch: epoch}, func(resp []byte) error {
		return parseOK(resp, opCommit)
	})
}

// AbortUpdate implements engine.Member: drop or roll back the epoch
// on the node (idempotent, like store.Abort).
func (c *Client) AbortUpdate(ctx context.Context, epoch uint64) error {
	return c.do(ctx, &rpcRequest{op: opAbort, epoch: epoch}, func(resp []byte) error {
		return parseOK(resp, opAbort)
	})
}

// Ping implements engine.Member: one payload-free frame round-trip, the
// cheapest proof the node is up, handshaken and serving — what a cluster
// front's health prober sends before re-admitting a cooled-down member.
func (c *Client) Ping(ctx context.Context) error {
	return c.do(ctx, &rpcRequest{op: opPing}, func(resp []byte) error {
		return parseOK(resp, opPing)
	})
}

// SnapshotMeta implements engine.Member: the node's pinned
// snapshot epoch, effective epoch, and the held row range its
// SnapshotChunk offsets are relative to — the donor handshake of a heal.
func (c *Client) SnapshotMeta(ctx context.Context) (snapEpoch, effEpoch uint64, lo, hi int, err error) {
	err = c.do(ctx, &rpcRequest{op: opSnapMeta}, func(resp []byte) error {
		var perr error
		snapEpoch, effEpoch, lo, hi, perr = parseSnapMeta(resp)
		return perr
	})
	if err != nil {
		return 0, 0, 0, 0, err
	}
	return snapEpoch, effEpoch, lo, hi, nil
}

// SnapshotChunk implements engine.Member: up to max words of the
// node's snapshot buffer for its held range, from word offset off. The
// node may return fewer words than asked (its frame cap bounds a chunk);
// an empty return past the end terminates the stream. The response echoes
// epoch and offset, and a mismatch is a protocol error — a resumed
// transfer can never be stitched from mismatched frames.
func (c *Client) SnapshotChunk(ctx context.Context, epoch uint64, off, max int) ([]uint32, error) {
	if off < 0 || max <= 0 {
		return nil, fmt.Errorf("shardnet: %s: snapshot chunk needs off >= 0 and max > 0 (got %d, %d)", c.addr, off, max)
	}
	wantMax := uint64(max)
	if wantMax > uint64(^uint32(0)) {
		wantMax = uint64(^uint32(0))
	}
	var words []uint32
	err := c.do(ctx, &rpcRequest{op: opSnapChunk, epoch: epoch, off: uint64(off), max: uint32(wantMax)}, func(resp []byte) error {
		gotEpoch, _, _, gotOff, w, perr := parseSnapChunk(resp)
		if perr != nil {
			return perr
		}
		if gotEpoch != epoch || gotOff != uint64(off) {
			return fmt.Errorf("%w: snapshot chunk answers epoch %d offset %d for request epoch %d offset %d",
				ErrProtocol, gotEpoch, gotOff, epoch, off)
		}
		words = w
		return nil
	})
	if err != nil {
		return nil, err
	}
	return words, nil
}

// Counters implements engine.Backend with the node's counters; a node that
// cannot be reached reports zeros (the Backend seam has no error path
// here, and counters are advisory).
func (c *Client) Counters() gpu.Stats {
	var stats gpu.Stats
	err := c.do(context.Background(), &rpcRequest{op: opCounters}, func(resp []byte) error {
		var perr error
		stats, perr = parseCounters(resp)
		return perr
	})
	if err != nil {
		return gpu.Stats{}
	}
	return stats
}

// Shape implements engine.Backend from the handshake (the node's shape is
// immutable for the life of the process).
func (c *Client) Shape() (rows, lanes int) { return c.w.Rows, c.w.Lanes }

// RemoteShape queries the node's shape over the wire — Shape answers from
// the handshake; this exists to exercise the RPC and for monitoring.
func (c *Client) RemoteShape(ctx context.Context) (rows, lanes int, err error) {
	err = c.do(ctx, &rpcRequest{op: opShape}, func(resp []byte) error {
		var perr error
		rows, lanes, perr = parseShape(resp)
		return perr
	})
	return rows, lanes, err
}

// PRGName implements engine.Member from the handshake.
func (c *Client) PRGName() string { return c.w.PRG }

// EarlyBits implements engine.Member from the handshake.
func (c *Client) EarlyBits() int { return c.w.Early }

// Party implements engine.Member from the handshake.
func (c *Client) Party() int { return c.w.Party }

// HeldRange implements engine.Member: the global rows the node
// advertised holding.
func (c *Client) HeldRange() (lo, hi int) { return c.w.RowLo, c.w.RowHi }

// Addr returns the node address this client dials.
func (c *Client) Addr() string { return c.addr }

// AdvertisedEpoch returns the table epoch the node advertised in the
// handshake (advisory — the authoritative epoch rides on every answer),
// and whether the node could read one at that moment.
func (c *Client) AdvertisedEpoch() (epoch uint64, known bool) { return c.w.Epoch, c.w.EpochKnown }
