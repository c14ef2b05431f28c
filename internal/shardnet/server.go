package shardnet

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
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
	// WriteTimeout bounds each response write (0 = 30s): a peer that
	// requests a batch and never reads would otherwise fill the TCP window
	// and pin the connection's goroutine and response buffer.
	WriteTimeout time.Duration
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
// pinning client's hello is checked against. Every engine.Member is one. A
// Describer that also has PRG() dpf.PRG states that PRF's construction
// (otherwise the one this build computes under the name), and one with
// Epoch(ctx) (uint64, error) states its table epoch.
type Describer interface {
	PRGName() string
	EarlyBits() int
	Party() int
	Shape() (rows, lanes int)
}

// refusalDrainTimeout bounds the drain that follows a refused oversized
// frame.
const refusalDrainTimeout = 5 * time.Second

// Server is the one connection loop. A node (NewServer) serves an
// engine.Member: the client ops on any connection, the member ops after a
// hello. A front (NewFront) serves the client ops on an Answerer, and
// answers hellos from its Describer.
type Server struct {
	front  Answerer      // a front's client ops
	member engine.Member // a node's every op; nil on a front
	desc   Describer     // what a welcome states; nil: hellos are refused
	self   hello         // desc's configuration, the epoch filled per hello

	maxReq, maxResp int
	maxBatch        int
	readTimeout     time.Duration
	writeTimeout    time.Duration

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
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = 30 * time.Second
	}
	s := &Server{
		desc:         desc,
		maxReq:       maxReq,
		maxResp:      maxResp,
		maxBatch:     cfg.MaxBatch,
		readTimeout:  cfg.ReadTimeout,
		writeTimeout: cfg.WriteTimeout,
		listeners:    map[net.Listener]struct{}{},
		conns:        map[net.Conn]struct{}{},
	}
	if desc != nil {
		rows, lanes := desc.Shape()
		s.self = hello{Version: ProtocolVersion, PRG: desc.PRGName(), Early: desc.EarlyBits(), Party: desc.Party(),
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

// frameResult is one read frame, or the error that ended the stream.
type frameResult struct {
	body []byte
	err  error
}

// serveConn runs one connection's lockstep loop.
func (s *Server) serveConn(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	ctx, cancel := context.WithCancel(s.ctx)
	defer cancel()
	br := bufio.NewReader(conn)
	next := s.frames(ctx, cancel, conn, br)
	helloed := false
	var out []byte
	for {
		fr, ok := next()
		if !ok {
			return
		}
		if fr.err != nil {
			s.refuse(conn, br, fr.err)
			return
		}
		req, err := s.parse(fr.body, helloed)
		if err != nil {
			s.refuse(conn, br, err)
			return
		}
		if req.op == opHello {
			if helloed = s.welcome(ctx, conn, &req.hello, out); !helloed {
				return
			}
			continue
		}
		out = s.dispatch(ctx, req, frame.Begin(out))
		err = s.write(conn, out)
		if errors.Is(err, ErrFrameTooLarge) {
			// Nothing was sent, so the stream is intact: tell the peer why
			// it gets no answer, and do not keep the oversized buffer.
			msg := fmt.Sprintf("shardnet: %d-byte response exceeds the %d-byte frame cap; narrow the batch", len(out)-frame.HeaderLen, s.maxResp)
			out = frame.AppendErr(frame.Begin(nil), req.op, frame.StatusErr, msg)
			err = s.write(conn, out)
		}
		if err != nil {
			return
		}
	}
}

// parse decodes a request, refusing a member op the connection may not
// send: on a front, or before a hello.
func (s *Server) parse(body []byte, helloed bool) (*request, error) {
	switch op := body[0]; {
	case memberOp(op) && s.member == nil:
		return nil, fmt.Errorf("%w: unknown opcode %#x", ErrProtocol, op)
	case memberOp(op) && !helloed:
		return nil, fmt.Errorf("%w: op %#x needs a hello first", ErrProtocol, op)
	}
	return parseRequest(body, s.maxBatch)
}

// welcome answers a hello: the server's configuration if h matches it, or
// the refusal naming both values. It reports whether the connection may go
// on.
func (s *Server) welcome(ctx context.Context, conn net.Conn, h *hello, out []byte) bool {
	msg := "this server states no configuration to check a hello against"
	if s.desc != nil {
		msg = refusal(h, &s.self)
	}
	if msg != "" {
		s.write(conn, frame.AppendErr(frame.Begin(out), opHello, frame.StatusErr, "hello refused: "+msg))
		return false
	}
	w := s.self
	if e, ok := s.desc.(interface {
		Epoch(context.Context) (uint64, error)
	}); ok {
		w.Epoch, _ = e.Epoch(ctx)
	}
	return s.write(conn, appendWelcome(frame.Begin(out), &w)) == nil
}

// frames returns a connection's frame source: the next frame, an
// oversized or malformed frame's error to name to the peer, or false once
// any other read failure (EOF, a stalled frame) ended the connection.
// Frames alternate between two buffers, so the one being served is never
// the one being read. A node reads on its own goroutine, handing frames
// over unbuffered, so a departed peer cancels ctx — and the backend work
// running under it — mid-evaluation; a front's Answerer takes no context,
// so its loop reads inline.
func (s *Server) frames(ctx context.Context, cancel context.CancelFunc, conn net.Conn, br *bufio.Reader) func() (frameResult, bool) {
	if s.member != nil {
		conn.SetReadDeadline(time.Now().Add(s.readTimeout)) // a node's fresh connection must speak
	}
	var bufs [2][]byte
	i := 0
	read := func() (frameResult, bool) {
		// The deadline starts at a frame's first byte, which Peek leaves
		// for frame.Read.
		_, err := br.Peek(1)
		if err == nil {
			conn.SetReadDeadline(time.Now().Add(s.readTimeout))
			var body []byte
			if body, err = frame.Read(br, s.maxReq, &bufs[i]); err == nil {
				conn.SetReadDeadline(time.Time{})
				i ^= 1
				return frameResult{body: body}, true
			}
		}
		return frameResult{err: err}, errors.Is(err, ErrFrameTooLarge) || errors.Is(err, ErrProtocol)
	}
	if s.member == nil {
		return read
	}
	ch := make(chan frameResult)
	go func() {
		defer cancel()
		for {
			fr, ok := read()
			if !ok {
				return
			}
			select {
			case ch <- fr:
			case <-ctx.Done():
				return
			}
			if fr.err != nil {
				return
			}
		}
	}()
	return func() (frameResult, bool) {
		select {
		case fr := <-ch:
			return fr, true
		case <-ctx.Done():
			return frameResult{}, false
		}
	}
}

// refuse names a frame-level violation to the peer before the loop hangs
// up: the stream position is unrecoverable past a refused frame.
func (s *Server) refuse(conn net.Conn, br *bufio.Reader, err error) {
	tooLarge := errors.Is(err, ErrFrameTooLarge)
	msg := err.Error()
	if tooLarge {
		msg = fmt.Sprintf("request exceeds the %d-byte frame cap (%v)", s.maxReq, err)
	}
	_ = s.write(conn, frame.AppendErr(frame.Begin(nil), frame.OpErr, frame.StatusErr, msg))
	if !tooLarge {
		return
	}
	// The refused frame's payload is likely still queued in the kernel
	// receive buffer; closing over unread bytes RSTs the connection and
	// discards the reply before the peer can read it. Drain until the peer
	// hangs up, under a deadline and a byte bound: past it the peer is not
	// a confused client worth a graceful goodbye.
	conn.SetReadDeadline(time.Now().Add(refusalDrainTimeout))
	_, _ = io.CopyN(io.Discard, br, 2*int64(s.maxReq))
}

// write sends one response frame (built on frame.Begin) under the
// per-write deadline.
func (s *Server) write(conn net.Conn, resp []byte) error {
	conn.SetWriteDeadline(time.Now().Add(s.writeTimeout))
	return frame.Write(conn, resp, s.maxResp)
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
	case opShape:
		return appendShape(dst, s.self.Rows, s.self.Lanes)
	case opCounters:
		c := s.member.Counters()
		return appendWords(dst, req.op, uint64(c.PRFBlocks), uint64(c.ReadBytes), uint64(c.WriteBytes), uint64(c.Launches), uint64(c.PeakMemBytes))
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
