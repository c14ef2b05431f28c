package shardnet

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"gpudpf/internal/backoff"
	"gpudpf/internal/dpf"
	"gpudpf/internal/engine"
	"gpudpf/internal/frame"
	"gpudpf/internal/serving"
	"gpudpf/internal/strategy"
)

// Options is what a client's hello pins.
type Options struct {
	// PRG pins the PRF — its name and the construction this build computes
	// under it ("" = any).
	PRG string
	// Party pins which share the server must compute. The zero value pins
	// party 0: a silent party mismatch yields garbage shares.
	Party int
	// Rows pins the table's row count (0 = any), and with it the
	// early-termination depth keys carry, which follows from the rows.
	Rows int
}

// DefaultRPCTimeout caps a node client's deadline-less RPCs — the
// backstop that keeps a caller without a deadline (a cluster front batches
// with context.Background()) from wedging forever on a node that
// black-holes mid-RPC: generous against the largest legitimate batch on a
// congested link, small against "the operator is watching a hung front".
const DefaultRPCTimeout = 30 * time.Second

// dialTimeout bounds each TCP connect plus hello.
const dialTimeout = 10 * time.Second

// ErrClosed is wrapped by the error of every call a Client ends or
// refuses because it was closed: one in flight, one waiting for a
// DialClient's connection, and one made after Close.
var ErrClosed = errors.New("shardnet: client is closed")

// Client is the one pooled client: each RPC runs lockstep on a connection
// from its pool. A transport error retires only its connection — closed,
// never read again, so no reply is read from a stream left mid-message —
// and the next RPC dials afresh, repeating the hello; failed dials back off
// with jitter seeded by the address, and RPCs that would dial fail fast,
// naming the wait, while the window is open.
//
// Dial makes a node's client, an engine.Member configured by the welcome:
// concurrent RPCs overlap, each on its own connection, and a
// deadline-less RPC is cut by DefaultRPCTimeout. DialClient makes
// pir.Dial's, a pool capped at one connection: its requests wait their
// turn under their own contexts, so a caller's count of clients bounds its
// connections, and it puts no deadline on a request — a slow answer queued
// behind a deep batcher is not a transport error. It says hello only when
// it pins.
type Client struct {
	addr    string
	name    string // what errors start with
	pin     *hello // nil: no hello
	w       hello  // the first welcome
	maxReq  int
	maxResp int
	timeout time.Duration // bounds an RPC whose context has no deadline (0: none)
	slot    chan struct{} // one token per connection in use; nil: uncapped

	mu     sync.Mutex
	idle   []*poolConn
	busy   []*poolConn // checked out by a call in flight
	closed atomic.Bool // set under mu
	done   chan struct{}

	// Redial backoff state, under its own lock so a backed-off dial check
	// never contends with the pool's hot path.
	bmu         sync.Mutex
	bo          *backoff.Backoff
	retryAt     time.Time
	lastDialErr error
}

// poolConn is one connection plus what each RPC on it reuses.
type poolConn struct {
	conn     net.Conn
	br       *bufio.Reader
	buf      []byte       // the request frame, then the response body
	r        frame.Reader // the response cursor
	deadline time.Time    // the deadline armed on conn
	slam     func()       // ends the RPC in flight: a deadline in the past
}

// afterFuncer is a context that runs a function when it ends, as
// context.AfterFunc does, without allocating per call: engine.Cluster's
// fan-out context is one. stop must be called at most once.
type afterFuncer interface {
	AfterFunc(f func()) (stop func() bool)
}

// sendHooker is a context with a hook for do to run once its request is
// written and before it reads the reply: a chained engine.Cluster pass
// starts its next shard's request there (engine.Pipeliner).
type sendHooker interface {
	RequestSent()
}

// Dial connects to a node, says hello (failing fast, with both sides'
// values named, on any mismatch) and returns its pooled client.
func Dial(addr string, opts Options) (*Client, error) {
	return dial(&Client{addr: addr, name: "shardnet: " + addr, maxReq: DefaultMaxFrame, maxResp: DefaultMaxFrame,
		timeout: DefaultRPCTimeout}, &opts)
}

// DialClient connects to a server for the client ops, with a front's frame
// caps, over at most one connection at a time; pin, if set, is checked by
// its hello.
func DialClient(addr string, pin *Options) (*Client, error) {
	return dial(&Client{addr: addr, name: "pir", maxReq: MaxRequestBytes, maxResp: MaxResponseBytes,
		slot: make(chan struct{}, 1)}, pin)
}

// dial takes opts' pins (nil: none, and no hello) and opens c's first
// connection.
func dial(c *Client, opts *Options) (*Client, error) {
	if opts != nil {
		construction := dpf.ConstructionOf(opts.PRG)
		if opts.PRG != "" && construction == 0 || opts.Party < 0 || opts.Party > 1 || opts.Rows < 0 {
			return nil, fmt.Errorf("%s: cannot pin prg=%q, party %d, %d rows", c.name, opts.PRG, opts.Party, opts.Rows)
		}
		c.pin = &hello{Version: ProtocolVersion, PRG: opts.PRG, Construction: construction,
			Party: opts.Party, Rows: opts.Rows}
		if opts.Rows > 0 {
			c.pin.Early = servedEarly(opts.Rows)
		}
	}
	h := fnv.New64a()
	h.Write([]byte(c.addr))
	c.bo = backoff.New(backoff.Default(), h.Sum64())
	c.done = make(chan struct{})
	pc, w, err := c.dialConn()
	if err != nil {
		return nil, err
	}
	c.w = w
	c.idle = append(c.idle, pc)
	return c, nil
}

// dialConn opens one connection and, if the client pins, says hello on it.
func (c *Client) dialConn() (*poolConn, hello, error) {
	conn, err := net.DialTimeout("tcp", c.addr, dialTimeout)
	if err != nil {
		return nil, hello{}, fmt.Errorf("%s: dial %s: %w", c.name, c.addr, err)
	}
	pc := &poolConn{conn: conn, br: bufio.NewReader(conn)}
	pc.slam = func() { conn.SetDeadline(time.Unix(1, 0)) }
	if c.pin == nil {
		return pc, hello{}, nil
	}
	conn.SetDeadline(time.Now().Add(dialTimeout))
	w, err := c.hello(pc)
	if err != nil {
		conn.Close()
		return nil, hello{}, fmt.Errorf("%s: %w", c.name, err)
	}
	conn.SetDeadline(time.Time{})
	return pc, w, nil
}

// hello sends the pin and checks the welcome: a server's refusal, and a
// welcome — peer-controlled input like any other — that does not match the
// pin or states a nonsense table.
func (c *Client) hello(pc *poolConn) (hello, error) {
	pc.buf, _ = appendRequest(frame.Begin(pc.buf), &request{op: opHello, hello: *c.pin}) // a hello always encodes
	if err := frame.Write(pc.conn, pc.buf, c.maxReq); err != nil {
		return hello{}, fmt.Errorf("hello: %w", err)
	}
	body, err := frame.Read(pc.br, c.maxResp, &pc.buf)
	if err != nil {
		return hello{}, fmt.Errorf("hello: %w", err)
	}
	pc.r.Reset(body)
	status, msg, err := frame.ResponseHeader(&pc.r, opHello)
	if err != nil {
		return hello{}, fmt.Errorf("hello: %w", err)
	}
	if status != frame.StatusOK {
		return hello{}, errors.New(msg)
	}
	w, err := parseHello(&pc.r)
	if err != nil {
		return hello{}, fmt.Errorf("welcome: %w", err)
	}
	if msg := refusal(c.pin, &w); msg != "" {
		return hello{}, fmt.Errorf("welcome refused: %s", msg)
	}
	if w.Rows <= 0 || w.Lanes <= 0 || w.RowLo >= w.RowHi || w.RowHi > w.Rows {
		return hello{}, fmt.Errorf("welcome states an invalid table: %d×%d rows, held range [%d,%d)", w.Rows, w.Lanes, w.RowLo, w.RowHi)
	}
	if want := servedEarly(w.Rows); w.Early != want {
		return hello{}, fmt.Errorf("welcome refused: server serves early-termination depth %d, a %d-row table serves depth %d", w.Early, w.Rows, want)
	}
	return w, nil
}

// get pops an idle connection or dials a fresh one, and counts it busy
// until release. A server restarted with a different configuration is
// caught here: every new connection's welcome must match the first, except
// the epoch, which moves with every update.
func (c *Client) get() (*poolConn, error) {
	c.mu.Lock()
	switch n := len(c.idle); {
	case c.closed.Load():
		c.mu.Unlock()
		return nil, fmt.Errorf("%s: %w", c.name, ErrClosed)
	case n > 0:
		pc := c.idle[n-1]
		c.idle = c.idle[:n-1]
		c.busy = append(c.busy, pc)
		c.mu.Unlock()
		return pc, nil
	}
	c.mu.Unlock()
	// Fail fast inside an open backoff window: a cluster front retrying a
	// dead member must burn microseconds, not a TCP connect per attempt.
	c.bmu.Lock()
	if wait := time.Until(c.retryAt); !c.retryAt.IsZero() && wait > 0 {
		last := c.lastDialErr
		c.bmu.Unlock()
		return nil, fmt.Errorf("%s: redial backed off for another %v after: %w", c.name, wait.Round(time.Millisecond), last)
	}
	c.bmu.Unlock()
	pc, w, err := c.dialConn()
	if err != nil {
		c.bmu.Lock()
		c.retryAt, c.lastDialErr = time.Now().Add(c.bo.Next()), err
		c.bmu.Unlock()
		return nil, err
	}
	c.bmu.Lock()
	c.bo.Reset()
	c.retryAt, c.lastDialErr = time.Time{}, nil
	c.bmu.Unlock()
	pinned := c.w
	pinned.Epoch, w.Epoch = 0, 0
	if w != pinned {
		pc.conn.Close()
		return nil, fmt.Errorf("%s: server configuration changed since the first hello (was %+v, now %+v)", c.name, pinned, w)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed.Load() {
		pc.conn.Close()
		return nil, fmt.Errorf("%s: %w", c.name, ErrClosed)
	}
	c.busy = append(c.busy, pc)
	return pc, nil
}

// release ends a call's use of its connection: a healthy one goes back to
// the pool unless the client is closed; any other is closed.
func (c *Client) release(pc *poolConn, healthy bool) {
	c.mu.Lock()
	i := slices.Index(c.busy, pc)
	last := len(c.busy) - 1
	c.busy[i], c.busy[last] = c.busy[last], nil
	c.busy = c.busy[:last]
	if healthy = healthy && !c.closed.Load(); healthy {
		c.idle = append(c.idle, pc)
	}
	c.mu.Unlock()
	if !healthy {
		pc.conn.Close()
	}
}

// Close closes the idle connections and ends every call: one in flight
// returns at once (its connection's deadline is set in the past, and the
// connection is closed when the call lets go of it), one waiting for a
// connection returns, and every later one fails without dialing. Each
// fails with an error wrapping ErrClosed.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed.Load() {
		c.mu.Unlock()
		return nil
	}
	c.closed.Store(true)
	close(c.done)
	for _, pc := range c.busy {
		pc.slam()
	}
	idle := c.idle
	c.idle = nil
	c.mu.Unlock()
	for _, pc := range idle {
		pc.conn.Close()
	}
	return nil
}

// arm sets pc's deadline for an RPC under ctx, from now: ctx's deadline
// plus a grace (the AfterFunc do registers slams the connection the
// instant ctx ends, so the net-layer timeout never races ahead of
// ctx.Err()), or without one the RPC timeout. A connection already armed
// as the RPC needs is left alone. A deadline set here may overwrite the
// slam of a ctx or a Close that has already ended the RPC, so such an RPC
// is slammed again.
func (c *Client) arm(ctx context.Context, pc *poolConn) {
	var deadline time.Time
	if d, ok := ctx.Deadline(); ok {
		deadline = d.Add(100 * time.Millisecond)
	} else if c.timeout > 0 {
		deadline, _ = boundBy(pc.deadline, c.timeout)
	}
	if !deadline.Equal(pc.deadline) {
		pc.conn.SetDeadline(deadline)
		pc.deadline = deadline
		if c.closed.Load() || ctx.Err() != nil {
			pc.slam()
		}
	}
}

// do runs one lockstep RPC: the request encoded into the connection's
// reusable buffer and sent, the context's send hook run, the response read
// back into the same buffer and, on success, its payload handed to parse,
// which must consume it before do returns. ctx cancellation and deadlines
// propagate by slamming the connection deadline, so a dead or slow server
// costs the caller its deadline, not a hung goroutine; Close slams it
// too. A failure the server reports — a shed request comes back as
// serving.ErrOverloaded, so errors.Is works across the network — leaves
// the connection pooled; any other retires it. A capped client's RPC first
// waits for a slot, giving up when ctx ends or the client closes.
func (c *Client) do(ctx context.Context, req *request, parse func(*frame.Reader) error) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("%s: %w", c.name, err)
	}
	if c.slot != nil {
		select {
		case c.slot <- struct{}{}:
			defer func() { <-c.slot }()
		case <-ctx.Done():
			return fmt.Errorf("%s: %w", c.name, ctx.Err())
		case <-c.done:
			return fmt.Errorf("%s: %w", c.name, ErrClosed)
		}
	}
	pc, err := c.get()
	if err != nil {
		return err
	}
	healthy := false
	defer func() { c.release(pc, healthy) }()
	if pc.buf, err = appendRequest(frame.Begin(pc.buf), req); err != nil {
		healthy = true // nothing was sent
		return fmt.Errorf("%s: %w", c.name, err)
	}
	c.arm(ctx, pc)
	stop := func() bool { return true } // a ctx that cannot end needs no callback
	if a, ok := ctx.(afterFuncer); ok {
		stop = a.AfterFunc(pc.slam)
	} else if ctx.Done() != nil {
		stop = context.AfterFunc(ctx, pc.slam)
	}
	ioErr := func(stage string, err error) error {
		if c.closed.Load() {
			err = fmt.Errorf("%w (%w)", ErrClosed, err)
		} else if cerr := ctx.Err(); cerr != nil {
			err = cerr
		} else if errors.Is(err, os.ErrDeadlineExceeded) {
			err = fmt.Errorf("%w (%w)", context.DeadlineExceeded, err)
		}
		return fmt.Errorf("%s: %s: %w", c.name, stage, err)
	}
	if err := frame.Write(pc.conn, pc.buf, c.maxReq); errors.Is(err, ErrFrameTooLarge) {
		healthy = stop() // refused before a byte was sent
		return fmt.Errorf("%s: %w: %w", c.name, ErrRequestTooLarge, err)
	} else if err != nil {
		stop()
		return ioErr("send", err)
	}
	if h, ok := ctx.(sendHooker); ok {
		// The hook's time is not this RPC's: re-arm its timeout.
		h.RequestSent()
		c.arm(ctx, pc)
	}
	body, err := frame.Read(pc.br, c.maxResp, &pc.buf)
	if errors.Is(err, ErrFrameTooLarge) {
		err = fmt.Errorf("%w: %w", ErrResponseTooLarge, err)
	}
	if err != nil {
		stop()
		return ioErr("receive", err)
	}
	// stop reports whether it prevented the deadline slam: if not, the
	// connection's deadline is (or is about to be) in the past — retire it
	// rather than poison the next request.
	healthy = stop()
	pc.r.Reset(body)
	status, msg, err := frame.ResponseHeader(&pc.r, req.op)
	if err == nil && status == frame.StatusOK {
		err = parse(&pc.r)
	}
	switch {
	case err != nil:
		healthy = false
		return ioErr("receive", err)
	case status == frame.StatusOK:
		return nil
	case status == statusOverloaded:
		return fmt.Errorf("%s: server: %w", c.name, serving.ErrOverloaded)
	}
	return fmt.Errorf("%s: server: %s", c.name, msg)
}

// Answer implements engine.Backend: the server evaluates the batch over
// its whole table.
func (c *Client) Answer(ctx context.Context, keys [][]byte) (answers [][]uint32, err error) {
	err = c.do(ctx, &request{op: opAnswer, keys: keys}, func(r *frame.Reader) error {
		answers, err = parseAnswers(r, len(keys))
		return err
	})
	return answers, err
}

// AnswerRangeEpoch implements engine.Member: the node evaluates the batch
// over global rows [lo, hi) only, returning partial shares and the table
// epoch it computed them at — what a cluster front needs to refuse merging
// a batch that straddled an update, or a stale member. ok is always true.
func (c *Client) AnswerRangeEpoch(ctx context.Context, keys [][]byte, lo, hi int) (answers [][]uint32, epoch uint64, ok bool, err error) {
	if lo < 0 || lo >= hi {
		return nil, 0, false, fmt.Errorf("%s: row range [%d,%d) invalid", c.name, lo, hi)
	}
	err = c.do(ctx, &request{op: opAnswerRange, keys: keys, lo: uint64(lo), hi: uint64(hi)}, func(r *frame.Reader) error {
		answers, epoch, err = parseRangeAnswers(r, len(keys))
		return err
	})
	return answers, epoch, err == nil, err
}

// words runs an RPC whose response is fixed-width words (none for a bare
// OK).
func (c *Client) words(ctx context.Context, req *request, words ...*uint64) error {
	return c.do(ctx, req, func(r *frame.Reader) error { return parseWords(r, words...) })
}

// Epoch implements engine.Member: the node's current table epoch.
func (c *Client) Epoch(ctx context.Context) (epoch uint64, err error) {
	err = c.words(ctx, &request{op: opEpoch}, &epoch)
	return epoch, err
}

// UpdateBatch implements engine.Backend: the writes land atomically on the
// server as one new epoch, which is returned.
func (c *Client) UpdateBatch(ctx context.Context, writes []engine.RowWrite) (epoch uint64, err error) {
	err = c.words(ctx, &request{op: opUpdateBatch, writes: writes}, &epoch)
	return epoch, err
}

// Stats fetches a front's serving stats (admission outcomes and
// epoch-retry counts).
func (c *Client) Stats(ctx context.Context) (s serving.Stats, err error) {
	err = c.words(ctx, &request{op: opStats}, &s.Accepted, &s.Shed, &s.EpochRetries)
	return s, err
}

// PrepareUpdate implements engine.Member: stage the writes as the given
// epoch on the node (invisible until CommitUpdate).
func (c *Client) PrepareUpdate(ctx context.Context, epoch uint64, writes []engine.RowWrite) error {
	return c.words(ctx, &request{op: opPrepare, epoch: epoch, writes: writes})
}

// CommitUpdate implements engine.Member.
func (c *Client) CommitUpdate(ctx context.Context, epoch uint64) error {
	return c.words(ctx, &request{op: opCommit, epoch: epoch})
}

// AbortUpdate implements engine.Member: drop or roll back the epoch on the
// node (idempotent, like store.Abort).
func (c *Client) AbortUpdate(ctx context.Context, epoch uint64) error {
	return c.words(ctx, &request{op: opAbort, epoch: epoch})
}

// Ping implements engine.Member: one payload-free round trip, the cheapest
// proof the node is up and serving — what a cluster front's health prober
// sends before re-admitting a cooled-down member.
func (c *Client) Ping(ctx context.Context) error {
	return c.words(ctx, &request{op: opPing})
}

// SnapshotMeta implements engine.Member: the node's pinned snapshot
// epoch, effective epoch, and the held row range its SnapshotChunk offsets
// are relative to — the donor handshake of a heal.
func (c *Client) SnapshotMeta(ctx context.Context) (snapEpoch, effEpoch uint64, lo, hi int, err error) {
	var loWire, hiWire uint64
	if err = c.do(ctx, &request{op: opSnapMeta}, func(r *frame.Reader) error {
		if err := parseWords(r, &snapEpoch, &effEpoch, &loWire, &hiWire); err != nil {
			return err
		}
		return checkRange("snapshot meta", loWire, hiWire)
	}); err != nil {
		return 0, 0, 0, 0, err
	}
	return snapEpoch, effEpoch, int(loWire), int(hiWire), nil
}

// SnapshotChunk implements engine.Member: up to max words of the node's
// snapshot buffer for its held range, from word offset off. The node may
// return fewer words than asked (its frame cap bounds a chunk); an empty
// return past the end terminates the stream. The response echoes epoch
// and offset, and a mismatch is a protocol error.
func (c *Client) SnapshotChunk(ctx context.Context, epoch uint64, off, max int) (words []uint32, err error) {
	if off < 0 || max <= 0 {
		return nil, fmt.Errorf("%s: snapshot chunk needs off >= 0 and max > 0 (got %d, %d)", c.name, off, max)
	}
	req := &request{op: opSnapChunk, epoch: epoch, off: uint64(off), max: uint32(min(uint64(max), 1<<32-1))}
	err = c.do(ctx, req, func(r *frame.Reader) error {
		gotEpoch, _, _, gotOff, w, err := parseSnapChunk(r)
		if err == nil && (gotEpoch != epoch || gotOff != uint64(off)) {
			err = fmt.Errorf("%w: snapshot chunk answers epoch %d offset %d for request epoch %d offset %d",
				ErrProtocol, gotEpoch, gotOff, epoch, off)
		}
		words = w
		return err
	})
	if err != nil {
		return nil, err
	}
	return words, nil
}

// Counters implements engine.Backend with the node's counters; a node that
// cannot be reached reports zeros (the seam has no error path here, and
// counters are advisory).
func (c *Client) Counters() strategy.Stats {
	var w [2]uint64
	if c.words(context.Background(), &request{op: opCounters}, &w[0], &w[1]) != nil {
		return strategy.Stats{}
	}
	return strategy.Stats{PRFBlocks: int64(w[0]), ReadBytes: int64(w[1])}
}

// Shape implements engine.Backend from the welcome (a node's shape is
// immutable for the life of the process).
func (c *Client) Shape() (rows, lanes int) { return c.w.Rows, c.w.Lanes }

// PRGName implements engine.Member from the welcome.
func (c *Client) PRGName() string { return c.w.PRG }

// Party implements engine.Member from the welcome.
func (c *Client) Party() int { return c.w.Party }

// HeldRange implements engine.Member: the global rows the node stated it
// holds.
func (c *Client) HeldRange() (lo, hi int) { return c.w.RowLo, c.w.RowHi }

// Pipelined implements engine.Pipeliner: the node computes, and do runs a
// context's send hook between its write and its read. A capped client
// (DialClient's) says no: a call chained behind its own send would wait for
// the one connection that send still holds.
func (c *Client) Pipelined() bool { return c.slot == nil }
