package shardnet

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"

	"gpudpf/internal/dpf"
	"gpudpf/internal/engine"
	"gpudpf/internal/frame"
	"gpudpf/internal/serving"
)

// ServerConfig sets a server's caps and deadlines; a node's held rows too.
type ServerConfig struct {
	// RowLo, RowHi is the global row range a node authoritatively holds,
	// stated in its welcome so a cluster front can refuse an assignment the
	// node cannot serve. Both zero (and always, on a front) means the whole
	// table.
	RowLo, RowHi int
	// MaxFrame caps accepted and emitted frames (0 = DefaultMaxFrame on a
	// node; MaxRequestBytes in and MaxResponseBytes out on a front).
	MaxFrame int
	// MaxBatch caps the keys of one request (0 = DefaultMaxBatch), enforced
	// in the request parser before any per-key allocation.
	MaxBatch int
	// ReadTimeout bounds a frame once its first byte has arrived, and a
	// node's fresh connection's silence (0 = 10s), so a stalled peer or a
	// port scanner cannot pin a goroutine. Connections may idle between
	// requests, and a front's fresh ones too: clients dial before a query.
	ReadTimeout time.Duration
}

// Answerer is what a front's client ops run on: a batching front door, a
// pir.Server, any request path. The keys it is handed alias the
// connection's read buffer and must not be kept past its return. The
// update-batch op runs on it if it also has UpdateBatch(writes) (uint64,
// error), and the stats op if it is a serving.StatsSource.
type Answerer interface {
	Answer(keys [][]byte) ([][]uint32, error)
}

// Describer is the configuration a front states in its welcome — what a
// pinning client's hello is checked against, with the early-termination
// depth its rows give. Every engine.Member is one. A
// Describer that also has PRG() dpf.PRG states that PRF's construction
// (otherwise the one this build computes under the name), and one with
// Epoch(ctx) (uint64, error) states its table epoch.
type Describer interface {
	PRGName() string
	Party() int
	Shape() (rows, lanes int)
}

// refusalDrainTimeout bounds the drain that follows a refused oversized
// frame.
const refusalDrainTimeout = 5 * time.Second

// Server is the one connection loop. A node (NewServer) serves an
// engine.Member: the client ops on any connection, the member ops after a
// hello. A front (NewFront) serves the client ops on an Answerer, and
// answers hellos from its Describer. One goroutine per connection reads
// each frame, runs it and writes its response: a read deadline is armed
// only for a frame not yet whole in the read buffer (readFrame), and on a
// node a dispatch that outlives departureGrace has the connection watched
// for its peer's departure, which cancels the work (departure).
type Server struct {
	front  Answerer      // a front's client ops
	member engine.Member // a node's every op; nil on a front
	desc   Describer     // what a welcome states; nil: hellos are refused
	self   hello         // desc's configuration, the epoch filled per hello

	maxReq, maxResp int
	maxBatch        int
	readTimeout     time.Duration

	// ctx cancels in-flight backend work when the server closes.
	ctx    context.Context
	cancel context.CancelFunc

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[net.Conn]struct{}
	closed    bool
}

// NewServer builds a node over the member.
func NewServer(be engine.Member, cfg ServerConfig) (*Server, error) {
	if be == nil {
		return nil, errors.New("shardnet: nil backend")
	}
	rows, _ := be.Shape()
	if cfg.RowLo == 0 && cfg.RowHi == 0 {
		cfg.RowHi = rows
	}
	if cfg.RowLo < 0 || cfg.RowHi > rows || cfg.RowLo >= cfg.RowHi {
		return nil, fmt.Errorf("shardnet: held row range [%d,%d) invalid for table of %d rows", cfg.RowLo, cfg.RowHi, rows)
	}
	if cfg.MaxFrame <= 0 {
		cfg.MaxFrame = DefaultMaxFrame
	}
	s := newServer(be, cfg, cfg.MaxFrame, cfg.MaxFrame)
	s.member = be
	return s, nil
}

// NewFront builds a front serving the client ops on a, stating desc's
// configuration (nil: none, and a hello is refused) in its welcome.
func NewFront(a Answerer, desc Describer, cfg ServerConfig) *Server {
	maxReq, maxResp := MaxRequestBytes, MaxResponseBytes
	if cfg.MaxFrame > 0 {
		maxReq, maxResp = cfg.MaxFrame, cfg.MaxFrame
	}
	cfg.RowLo, cfg.RowHi = 0, 0
	if desc != nil {
		cfg.RowHi, _ = desc.Shape()
	}
	s := newServer(desc, cfg, maxReq, maxResp)
	s.front = a
	return s
}

func newServer(desc Describer, cfg ServerConfig, maxReq, maxResp int) *Server {
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = DefaultMaxBatch
	}
	if cfg.ReadTimeout <= 0 {
		cfg.ReadTimeout = 10 * time.Second
	}
	s := &Server{
		desc:        desc,
		maxReq:      maxReq,
		maxResp:     maxResp,
		maxBatch:    cfg.MaxBatch,
		readTimeout: cfg.ReadTimeout,
		listeners:   map[net.Listener]struct{}{},
		conns:       map[net.Conn]struct{}{},
	}
	if desc != nil {
		rows, lanes := desc.Shape()
		s.self = hello{Version: ProtocolVersion, PRG: desc.PRGName(), Early: servedEarly(rows), Party: desc.Party(),
			Rows: rows, Lanes: lanes, RowLo: cfg.RowLo, RowHi: cfg.RowHi}
		if p, ok := desc.(interface{ PRG() dpf.PRG }); ok {
			s.self.Construction = p.PRG().Construction()
		} else {
			s.self.Construction = dpf.ConstructionOf(s.self.PRG)
		}
	}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	return s
}

// Serve runs a blocking accept loop on l until l closes (or the server
// does). Multiple Serve calls on different listeners are allowed.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		l.Close()
		return errors.New("shardnet: server is closed")
	}
	s.listeners[l] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, l)
		s.mu.Unlock()
	}()
	for {
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return fmt.Errorf("shardnet: accept: %w", err)
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

// Close stops the server: listeners and live connections are closed and
// in-flight backend work is cancelled. Safe to call more than once.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ls := make([]net.Listener, 0, len(s.listeners))
	for l := range s.listeners {
		ls = append(ls, l)
	}
	cs := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		cs = append(cs, c)
	}
	s.mu.Unlock()
	s.cancel()
	for _, l := range ls {
		l.Close()
	}
	for _, c := range cs {
		c.Close()
	}
	return nil
}

// departureGrace is how long a node's dispatch runs before the server
// starts watching the connection for its peer's departure. Work shorter
// than that finishes before a departed peer could be noticed anyway, and
// is served with no read beside it.
const departureGrace = time.Millisecond

// servedConn is one connection's reusable state: its reader, the frame
// being served and its parsed request, and the response buffer.
type servedConn struct {
	conn     net.Conn
	br       *bufio.Reader
	buf      []byte
	req      request
	out      []byte
	deadline bool // a read deadline is armed

	writeDeadline time.Time // armed by write
}

// serveConn runs one connection's lockstep loop: it reads a frame, runs
// it and writes the response, all on this goroutine.
func (s *Server) serveConn(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	ctx, cancel := context.WithCancel(s.ctx)
	defer cancel()
	c := &servedConn{conn: conn, br: bufio.NewReader(conn)}
	var gone *departure
	if s.member != nil {
		conn.SetReadDeadline(time.Now().Add(s.readTimeout)) // a node's fresh connection must speak
		c.deadline = true
		gone = newDeparture(c, cancel)
	}
	helloed := false
	for {
		body, err := s.readFrame(c)
		if err != nil {
			if errors.Is(err, ErrFrameTooLarge) || errors.Is(err, ErrProtocol) {
				s.refuse(c, err)
			}
			return
		}
		req := &c.req
		if err := s.parse(body, helloed, req); err != nil {
			s.refuse(c, err)
			return
		}
		if req.op == opHello {
			if helloed = s.welcome(ctx, c, &req.hello); !helloed {
				return
			}
			continue
		}
		if gone != nil {
			gone.arm()
		}
		c.out = s.dispatch(ctx, req, frame.Begin(c.out))
		err = s.write(c, c.out)
		if errors.Is(err, ErrFrameTooLarge) {
			// Nothing was sent, so the stream is intact: tell the peer why
			// it gets no answer, and do not keep the oversized buffer.
			msg := fmt.Sprintf("shardnet: %d-byte response exceeds the %d-byte frame cap; narrow the batch", len(c.out)-frame.HeaderLen, s.maxResp)
			c.out = frame.AppendErr(frame.Begin(nil), req.op, frame.StatusErr, msg)
			err = s.write(c, c.out)
		}
		if gone != nil {
			// A peek may run on while the response goes out, but not into
			// the next read.
			gone.disarm()
		}
		if err != nil {
			return
		}
	}
}

// readFrame reads the next frame into c.buf: an oversized or malformed
// frame's error is for the peer, any other error (EOF, a stalled frame)
// ends the connection. A frame's first byte is awaited with no deadline,
// since connections may idle between requests; a node's fresh connection
// is the exception, armed by serveConn. A frame already whole in the read
// buffer is read with no deadline, since nothing can block; any other is
// cut once ReadTimeout passes from its first byte.
func (s *Server) readFrame(c *servedConn) ([]byte, error) {
	if _, err := c.br.Peek(1); err != nil {
		return nil, err
	}
	if !frame.Whole(c.br) {
		c.conn.SetReadDeadline(time.Now().Add(s.readTimeout))
		c.deadline = true
	}
	body, err := frame.Read(c.br, s.maxReq, &c.buf)
	if err == nil && c.deadline {
		c.conn.SetReadDeadline(time.Time{})
		c.deadline = false
	}
	return body, err
}

// departure cancels a node connection's in-flight work once its peer
// leaves. Armed for each dispatch, it peeks the connection only if the
// work outlives departureGrace, and cancels the connection's context on
// EOF or any other read failure but the deadline disarm stops it with.
// Disarming, once the response is written, joins the peek, so the serve
// loop owns the reader again before its next read; bytes the peek
// buffered stay there for it.
type departure struct {
	c      *servedConn
	cancel context.CancelFunc
	timer  *time.Timer
	done   chan struct{} // the peek's end
}

func newDeparture(c *servedConn, cancel context.CancelFunc) *departure {
	d := &departure{c: c, cancel: cancel, done: make(chan struct{}, 1)}
	d.timer = time.AfterFunc(time.Hour, d.watch)
	d.timer.Stop()
	return d
}

func (d *departure) arm() { d.timer.Reset(departureGrace) }

// watch runs on the timer's goroutine once the grace has passed.
func (d *departure) watch() {
	if _, err := d.c.br.Peek(1); err != nil && !errors.Is(err, os.ErrDeadlineExceeded) {
		d.cancel()
	}
	d.done <- struct{}{}
}

func (d *departure) disarm() {
	if d.timer.Stop() {
		return // the peek never started
	}
	d.c.conn.SetReadDeadline(time.Unix(1, 0))
	<-d.done
	d.c.conn.SetReadDeadline(time.Time{})
}

// parse decodes a request into req, refusing a member op the connection
// may not send: on a front, or before a hello.
func (s *Server) parse(body []byte, helloed bool, req *request) error {
	switch op := body[0]; {
	case memberOp(op) && s.member == nil:
		return fmt.Errorf("%w: unknown opcode %#x", ErrProtocol, op)
	case memberOp(op) && !helloed:
		return fmt.Errorf("%w: op %#x needs a hello first", ErrProtocol, op)
	}
	return parseRequestInto(body, s.maxBatch, req)
}

// welcome answers a hello: the server's configuration if h matches it, or
// the refusal naming both values. It reports whether the connection may go
// on.
func (s *Server) welcome(ctx context.Context, c *servedConn, h *hello) bool {
	msg := "this server states no configuration to check a hello against"
	if s.desc != nil {
		msg = refusal(h, &s.self)
	}
	if msg != "" {
		s.write(c, frame.AppendErr(frame.Begin(c.out), opHello, frame.StatusErr, "hello refused: "+msg))
		return false
	}
	w := s.self
	if e, ok := s.desc.(interface {
		Epoch(context.Context) (uint64, error)
	}); ok {
		w.Epoch, _ = e.Epoch(ctx)
	}
	return s.write(c, appendWelcome(frame.Begin(c.out), &w)) == nil
}

// refuse names a frame-level violation to the peer before the loop hangs
// up: the stream position is unrecoverable past a refused frame.
func (s *Server) refuse(c *servedConn, err error) {
	tooLarge := errors.Is(err, ErrFrameTooLarge)
	msg := err.Error()
	if tooLarge {
		msg = fmt.Sprintf("request exceeds the %d-byte frame cap (%v)", s.maxReq, err)
	}
	_ = s.write(c, frame.AppendErr(frame.Begin(nil), frame.OpErr, frame.StatusErr, msg))
	if !tooLarge {
		return
	}
	// The refused frame's payload is likely still queued in the kernel
	// receive buffer; closing over unread bytes RSTs the connection and
	// discards the reply before the peer can read it. Drain until the peer
	// hangs up, under a deadline and a byte bound: past it the peer is not
	// a confused client worth a graceful goodbye.
	c.conn.SetReadDeadline(time.Now().Add(refusalDrainTimeout))
	_, _ = io.CopyN(io.Discard, c.br, 2*int64(s.maxReq))
}

// writeTimeout bounds each response write: a peer that requests a batch
// and never reads would otherwise fill the TCP window and pin the
// connection's goroutine and response buffer.
const writeTimeout = 30 * time.Second

// write sends one response frame (built on frame.Begin) under the write
// deadline, re-armed only once it falls short (boundBy), so a stalled write
// is cut between writeTimeout and 9/8 of it after it starts.
func (s *Server) write(c *servedConn, resp []byte) error {
	if d, ok := boundBy(c.writeDeadline, writeTimeout); ok {
		c.conn.SetWriteDeadline(d)
		c.writeDeadline = d
	}
	return frame.Write(c.conn, resp, s.maxResp)
}

// boundBy returns the deadline that bounds an operation starting now by
// d, and whether it differs from armed: an armed deadline between d and
// 9/8·d away is kept. A connection serving short operations back to back
// so re-arms once per d/8 instead of once per operation, and a stalled
// operation is cut between d and 9/8·d after it starts.
func boundBy(armed time.Time, d time.Duration) (time.Time, bool) {
	lo := time.Now().Add(d)
	if armed.Before(lo) || armed.After(lo.Add(d/8)) {
		return lo.Add(d / 8), true
	}
	return armed, false
}

// dispatch executes one request and encodes its response into dst. A node
// holds requests to its authoritative row range: rows outside [lo, hi) are
// zero in a shard node's table, so answering for them would return
// silently wrong partial shares.
func (s *Server) dispatch(ctx context.Context, req *request, dst []byte) []byte {
	lo, hi := s.self.RowLo, s.self.RowHi
	var err error
	switch req.op {
	case opAnswer:
		var answers [][]uint32
		switch {
		case s.member == nil:
			answers, err = s.front.Answer(req.keys)
		case lo != 0 || hi != s.self.Rows:
			err = fmt.Errorf("shardnet: this node holds only rows [%d,%d) of %d; whole-table Answer needs AnswerRange through a cluster", lo, hi, s.self.Rows)
		default:
			answers, err = s.member.Answer(ctx, req.keys)
		}
		if err == nil && len(answers) != len(req.keys) {
			err = fmt.Errorf("shardnet: %d answers for %d keys", len(answers), len(req.keys))
		}
		if err == nil {
			return appendAnswers(dst, answers)
		}
	case opUpdateBatch:
		var epoch uint64
		if s.member != nil {
			if err = s.checkWritesHeld(req.writes); err == nil {
				epoch, err = s.member.UpdateBatch(ctx, req.writes)
			}
		} else if up, ok := s.front.(interface {
			UpdateBatch([]engine.RowWrite) (uint64, error)
		}); ok {
			epoch, err = up.UpdateBatch(req.writes)
		} else {
			err = errors.New("shardnet: server does not accept updates")
		}
		if err == nil {
			return appendWords(dst, req.op, epoch)
		}
	case opStats:
		src, ok := s.front.(serving.StatsSource)
		if !ok {
			err = errors.New("shardnet: server does not report serving stats")
			break
		}
		st := src.ServingStats()
		return appendWords(dst, req.op, st.Accepted, st.Shed, st.EpochRetries)
	case opAnswerRange:
		if req.hi > uint64(s.self.Rows) || req.lo >= req.hi {
			err = fmt.Errorf("shardnet: row range [%d,%d) invalid for table of %d rows", req.lo, req.hi, s.self.Rows)
			break
		}
		if req.lo < uint64(lo) || req.hi > uint64(hi) {
			err = fmt.Errorf("shardnet: row range [%d,%d) outside the rows [%d,%d) this node holds", req.lo, req.hi, lo, hi)
			break
		}
		var answers [][]uint32
		var epoch uint64
		if answers, epoch, _, err = s.member.AnswerRangeEpoch(ctx, req.keys, int(req.lo), int(req.hi)); err == nil {
			return appendRangeAnswers(dst, answers, s.self.Lanes, epoch)
		}
	case opEpoch:
		var epoch uint64
		if epoch, err = s.member.Epoch(ctx); err == nil {
			return appendWords(dst, req.op, epoch)
		}
	case opPrepare:
		if err = s.checkWritesHeld(req.writes); err == nil {
			err = s.member.PrepareUpdate(ctx, req.epoch, req.writes)
		}
	case opCommit:
		err = s.member.CommitUpdate(ctx, req.epoch)
	case opAbort:
		err = s.member.AbortUpdate(ctx, req.epoch)
	case opCounters:
		c := s.member.Counters()
		return appendWords(dst, req.op, uint64(c.PRFBlocks), uint64(c.ReadBytes))
	case opPing:
	case opSnapMeta:
		snapEpoch, effEpoch, beLo, beHi, merr := s.member.SnapshotMeta(ctx)
		switch {
		case merr != nil:
			err = merr
		case beLo > lo || beHi < hi:
			err = fmt.Errorf("shardnet: backend snapshot covers rows [%d,%d), this node holds [%d,%d)", beLo, beHi, lo, hi)
		default:
			// The node's authoritative range, not the backend's: chunk
			// offsets are relative to what a healing peer should adopt.
			return appendWords(dst, req.op, snapEpoch, effEpoch, uint64(lo), uint64(hi))
		}
	case opSnapChunk:
		var words []uint32
		if words, err = s.snapChunk(ctx, req); err == nil {
			return appendSnapChunk(dst, req.epoch, lo, hi, req.off, words)
		}
	}
	if err != nil {
		return appendErr(dst, req.op, err)
	}
	return appendWords(dst, req.op) // prepare, commit, abort, ping
}

// snapChunk reads up to req.max words of the held range's snapshot from
// word offset req.off; past the end, none, which terminates the stream.
func (s *Server) snapChunk(ctx context.Context, req *request) ([]uint32, error) {
	if req.max == 0 {
		return nil, errors.New("shardnet: snapshot chunk needs max > 0")
	}
	lo, lanes := s.self.RowLo, s.self.Lanes
	heldWords := uint64(s.self.RowHi-lo) * uint64(lanes)
	if req.off >= heldWords {
		return nil, nil
	}
	want := min(uint64(req.max), heldWords-req.off)
	// Leave headroom for the chunk header inside the frame cap so a
	// max-sized request never produces an unsendable response.
	want = min(want, uint64(s.maxResp-64)/4)
	// Offsets on the wire are relative to the node's held range; the
	// backend snapshot's buffer may start below it.
	_, _, beLo, _, err := s.member.SnapshotMeta(ctx)
	if err != nil {
		return nil, err
	}
	return s.member.SnapshotChunk(ctx, req.epoch, (lo-beLo)*lanes+int(req.off), int(want))
}

// checkWritesHeld enforces a node's authoritative row range on an update
// batch: a write outside it would land in rows the node serves as
// zero-filled garbage.
func (s *Server) checkWritesHeld(writes []engine.RowWrite) error {
	for i, w := range writes {
		if w.Row < uint64(s.self.RowLo) || w.Row >= uint64(s.self.RowHi) {
			return fmt.Errorf("shardnet: write %d targets row %d outside the rows [%d,%d) this node holds", i, w.Row, s.self.RowLo, s.self.RowHi)
		}
	}
	return nil
}
