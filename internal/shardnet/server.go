package shardnet

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"gpudpf/internal/engine"
	"gpudpf/internal/frame"
)

// ServerConfig assembles a shard node.
type ServerConfig struct {
	// RowLo, RowHi is the global row range this node authoritatively
	// holds, advertised in the handshake so a cluster front can refuse an
	// assignment the node cannot serve. Both zero means the node holds
	// its backend's whole table.
	RowLo, RowHi int
	// MaxFrame caps accepted and emitted frames (0 = DefaultMaxFrame).
	MaxFrame int
	// MaxBatch caps the keys accepted in one Answer/AnswerRange request
	// (0 = DefaultMaxBatch), enforced in the request parser before any
	// per-key allocation. The frame cap bounds request BYTES, but a
	// hostile frame full of zero-length keys would otherwise still buy a
	// large allocation fan-out — millions of slice headers at parse, then
	// key structs and per-shard partials in the backend — before the
	// first key fails to unmarshal.
	MaxBatch int
	// WriteTimeout bounds each response write (0 = 30s): a peer that
	// requests a batch and then never reads would otherwise fill the TCP
	// window and pin the connection's goroutine and response buffer until
	// the server closes.
	WriteTimeout time.Duration
	// HandshakeTimeout bounds how long a fresh connection may take to
	// complete the handshake (0 = 10s). Without it, a peer that connects
	// and sends nothing — a port scanner, a wedged front — would hold a
	// goroutine and file descriptor forever; the frame caps bound hostile
	// input in bytes, this bounds it in time. Established connections are
	// exempt: an idle pooled connection from a front is normal.
	HandshakeTimeout time.Duration
}

// Server exposes an engine.Member over the shardnet protocol. The node's
// pinned configuration (PRF, early-termination depth, party) is the
// member's, enforced against each client's handshake.
type Server struct {
	be           engine.Member
	hsTimeout    time.Duration
	writeTimeout time.Duration
	maxFrame     int
	maxBatch     int
	rows         int
	lanes        int
	lo, hi       int
	prg          string
	early        int
	party        int

	// ctx cancels in-flight backend work when the server closes: a shard
	// node shutting down abandons its partial sums instead of finishing
	// batches nobody will merge.
	ctx    context.Context
	cancel context.CancelFunc

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[net.Conn]struct{}
	closed    bool
}

// NewServer builds a node over the backend.
func NewServer(be engine.Member, cfg ServerConfig) (*Server, error) {
	if be == nil {
		return nil, errors.New("shardnet: nil backend")
	}
	rows, lanes := be.Shape()
	lo, hi := cfg.RowLo, cfg.RowHi
	if lo == 0 && hi == 0 {
		hi = rows
	}
	if lo < 0 || hi > rows || lo >= hi {
		return nil, fmt.Errorf("shardnet: held row range [%d,%d) invalid for table of %d rows", lo, hi, rows)
	}
	maxFrame := cfg.MaxFrame
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	if cfg.HandshakeTimeout <= 0 {
		cfg.HandshakeTimeout = 10 * time.Second
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = DefaultMaxBatch
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = 30 * time.Second
	}
	s := &Server{
		be:           be,
		hsTimeout:    cfg.HandshakeTimeout,
		writeTimeout: cfg.WriteTimeout,
		maxFrame:     maxFrame,
		maxBatch:     cfg.MaxBatch,
		rows:         rows,
		lanes:        lanes,
		lo:           lo,
		hi:           hi,
		prg:          be.PRGName(),
		early:        be.EarlyBits(),
		party:        be.Party(),
		listeners:    map[net.Listener]struct{}{},
		conns:        map[net.Conn]struct{}{},
	}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	return s, nil
}

// Serve runs a blocking accept loop on l, answering shardnet connections
// until l closes (or the server does). Multiple Serve calls on different
// listeners are allowed.
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

// Close stops the node: listeners and live connections are closed and
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

// handshake answers one client hello; reports whether the connection may
// proceed to the RPC loop.
func (s *Server) handshake(conn net.Conn, br *bufio.Reader) bool {
	conn.SetDeadline(time.Now().Add(s.hsTimeout))
	defer conn.SetDeadline(time.Time{})
	var h hello
	if err := readHandshake(br, &h); err != nil {
		return false
	}
	w := welcome{
		Version: ProtocolVersion,
		PRG:     s.prg,
		Early:   s.early,
		Party:   s.party,
		Rows:    s.rows,
		Lanes:   s.lanes,
		RowLo:   s.lo,
		RowHi:   s.hi,
	}
	if epoch, err := s.be.Epoch(s.ctx); err == nil {
		w.Epoch, w.EpochKnown = epoch, true
	}
	switch {
	case h.Proto != protoName:
		w.Err = fmt.Sprintf("shardnet: handshake: unknown protocol %q, this node speaks %q", h.Proto, protoName)
	case h.Version != ProtocolVersion:
		w.Err = fmt.Sprintf("shardnet: handshake: client speaks shardnet wire version %d, this node speaks version %d", h.Version, ProtocolVersion)
	case h.PRG != "" && h.PRG != s.prg:
		w.Err = fmt.Sprintf("shardnet: handshake: client keys use prg=%s, this node serves prg=%s", h.PRG, s.prg)
	case h.Early != 0 && normEarly(h.Early) != s.early:
		w.Err = fmt.Sprintf("shardnet: handshake: client keys carry early-termination depth %d, this node serves depth %d", normEarly(h.Early), s.early)
	case h.Party != AdoptParty && h.Party != s.party:
		w.Err = fmt.Sprintf("shardnet: handshake: client expects party-%d shares, this node computes party %d", h.Party, s.party)
	}
	if err := writeHandshake(conn, &w); err != nil {
		return false
	}
	return w.Err == ""
}

// frameResult is one read frame (or the read error that ended the stream)
// handed from a connection's reader goroutine to its RPC loop.
type frameResult struct {
	body []byte
	err  error
}

// serveConn runs the handshake and then the lockstep RPC loop for one
// connection. All reads happen on a dedicated reader goroutine so the
// loop learns about a dead or departed peer WHILE the backend is still
// evaluating — the connection context is cancelled the moment the read
// side fails, and dispatch runs under that context, so abandoned batches
// stop burning shard CPU instead of completing for nobody.
func (s *Server) serveConn(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	br := bufio.NewReader(conn)
	if !s.handshake(conn, br) {
		return
	}
	ctx, cancel := context.WithCancel(s.ctx)
	defer cancel()
	// Capacity 2 keeps the common case allocation-light; a pipelining peer
	// can fill both slots with body frames, so EVERY reader send carries a
	// ctx.Done escape (the loop's deferred cancel fires if it returns
	// early) — without one, the final error send could block forever and
	// leak the goroutine. The error is sent BEFORE cancel(), so whenever
	// the loop sees Done from the reader's own cancel, the error is
	// already drainable.
	frames := make(chan frameResult, 2)
	go func() {
		var buf []byte
		for {
			body, err := frame.Read(br, s.maxFrame, &buf)
			if err != nil {
				select {
				case frames <- frameResult{err: err}:
				case <-ctx.Done():
				}
				cancel() // peer gone or unrecoverable stream: abandon in-flight work
				return
			}
			// The read buffer is reused; hand the loop its own copy in case
			// a pipelining client has the next frame arrive mid-dispatch.
			// The ctx arm keeps the reader from leaking if the RPC loop
			// already returned (its deferred cancel fires).
			select {
			case frames <- frameResult{body: append([]byte(nil), body...)}:
			case <-ctx.Done():
				return
			}
		}
	}()
	var respBuf []byte
	for {
		var fr frameResult
		select {
		case fr = <-frames:
		case <-ctx.Done():
			// The reader queues its error before cancelling, so drain it if
			// present; an empty channel means the server itself is closing.
			select {
			case fr = <-frames:
			default:
				return
			}
		}
		if fr.err != nil {
			if errors.Is(fr.err, ErrFrameTooLarge) || errors.Is(fr.err, ErrProtocol) {
				// Name the violation to the peer before hanging up; the
				// stream position is unrecoverable past a refused frame.
				_ = s.writeResponse(conn, appendErrResponse(frame.Begin(respBuf), frame.OpErr, fr.err.Error()))
			}
			return
		}
		req, err := parseRequest(fr.body, s.maxBatch)
		if err != nil {
			_ = s.writeResponse(conn, appendErrResponse(frame.Begin(respBuf), frame.OpErr, err.Error()))
			return
		}
		resp := s.dispatch(ctx, req, frame.Begin(respBuf))
		if err := s.writeResponse(conn, resp); err != nil {
			if errors.Is(err, ErrFrameTooLarge) {
				// The request was legitimate but its answer does not fit the
				// cap (answers scale with lanes, requests with key bytes).
				// Tell the client why instead of leaving it an opaque EOF;
				// the error frame itself always fits.
				_ = s.writeResponse(conn, appendErrResponse(frame.Begin(resp), frame.OpErr,
					fmt.Sprintf("shardnet: %d-byte response exceeds the %d-byte frame cap; narrow the batch", len(resp)-frame.HeaderLen, s.maxFrame)))
			}
			return
		}
		respBuf = resp[:0]
	}
}

// writeResponse sends one response frame (built on frame.Begin) under the
// per-write deadline, so a peer that stops reading cannot pin the
// connection's goroutine and response buffer past WriteTimeout.
func (s *Server) writeResponse(conn net.Conn, resp []byte) error {
	conn.SetWriteDeadline(time.Now().Add(s.writeTimeout))
	return frame.Write(conn, resp, s.maxFrame)
}

// dispatch executes one parsed request against the backend and encodes the
// response into dst. Requests are held to the node's authoritative row
// range: rows outside [lo, hi) are zero in a shard node's table, so
// answering for them would return silently wrong partial shares — exactly
// the failure mode this package exists to make loud.
func (s *Server) dispatch(ctx context.Context, req *rpcRequest, dst []byte) []byte {
	switch req.op {
	case opAnswer:
		if s.lo != 0 || s.hi != s.rows {
			return appendErrResponse(dst, req.op,
				fmt.Sprintf("shardnet: this node holds only rows [%d,%d) of %d; whole-table Answer needs AnswerRange through a cluster", s.lo, s.hi, s.rows))
		}
		return s.dispatchAnswers(ctx, req, dst, 0, s.rows)
	case opAnswerRange:
		if req.hi > uint64(s.rows) || req.lo >= req.hi {
			return appendErrResponse(dst, req.op, fmt.Sprintf("shardnet: row range [%d,%d) invalid for table of %d rows", req.lo, req.hi, s.rows))
		}
		if req.lo < uint64(s.lo) || req.hi > uint64(s.hi) {
			return appendErrResponse(dst, req.op,
				fmt.Sprintf("shardnet: row range [%d,%d) outside the rows [%d,%d) this node holds", req.lo, req.hi, s.lo, s.hi))
		}
		return s.dispatchAnswers(ctx, req, dst, int(req.lo), int(req.hi))
	case opUpdateBatch:
		if resp := s.checkWritesHeld(req, dst); resp != nil {
			return resp
		}
		epoch, err := s.be.UpdateBatch(ctx, req.writes)
		if err != nil {
			return appendErrResponse(dst, req.op, err.Error())
		}
		return appendEpochResp(dst, req.op, epoch)
	case opEpoch:
		epoch, err := s.be.Epoch(ctx)
		if err != nil {
			return appendErrResponse(dst, req.op, err.Error())
		}
		return appendEpochResp(dst, req.op, epoch)
	case opPrepare:
		if resp := s.checkWritesHeld(req, dst); resp != nil {
			return resp
		}
		if err := s.be.PrepareUpdate(ctx, req.epoch, req.writes); err != nil {
			return appendErrResponse(dst, req.op, err.Error())
		}
		return appendOK(dst, req.op)
	case opCommit:
		if err := s.be.CommitUpdate(ctx, req.epoch); err != nil {
			return appendErrResponse(dst, req.op, err.Error())
		}
		return appendOK(dst, req.op)
	case opAbort:
		if err := s.be.AbortUpdate(ctx, req.epoch); err != nil {
			return appendErrResponse(dst, req.op, err.Error())
		}
		return appendOK(dst, req.op)
	case opShape:
		rows, lanes := s.be.Shape()
		return appendShape(dst, rows, lanes)
	case opCounters:
		return appendCounters(dst, s.be.Counters())
	case opPing:
		return appendOK(dst, req.op)
	case opSnapMeta:
		snapEpoch, effEpoch, beLo, beHi, err := s.be.SnapshotMeta(ctx)
		if err != nil {
			return appendErrResponse(dst, req.op, err.Error())
		}
		if beLo > s.lo || beHi < s.hi {
			return appendErrResponse(dst, req.op,
				fmt.Sprintf("shardnet: backend snapshot covers rows [%d,%d), this node holds [%d,%d)", beLo, beHi, s.lo, s.hi))
		}
		// Advertise the node's authoritative range, not the backend's: chunk
		// offsets are relative to what a healing peer should adopt.
		return appendSnapMeta(dst, snapEpoch, effEpoch, s.lo, s.hi)
	case opSnapChunk:
		if req.max == 0 {
			return appendErrResponse(dst, req.op, "shardnet: snapshot chunk needs max > 0")
		}
		heldWords := uint64(s.hi-s.lo) * uint64(s.lanes)
		if req.off >= heldWords {
			// Past the end of the held range: the empty chunk terminates the
			// stream, epoch and offset echoed so the client can pair it up.
			return appendSnapChunk(dst, req.epoch, s.lo, s.hi, req.off, nil)
		}
		want := uint64(req.max)
		if rem := heldWords - req.off; want > rem {
			want = rem
		}
		// Leave headroom for the chunk header inside the frame cap so a
		// max-sized request never produces an unsendable response.
		if frameCap := uint64(s.maxFrame-64) / 4; want > frameCap {
			want = frameCap
		}
		// Offsets on the wire are relative to the node's held range;
		// translate into the backend snapshot's buffer, which may start
		// below s.lo.
		_, _, beLo, _, err := s.be.SnapshotMeta(ctx)
		if err != nil {
			return appendErrResponse(dst, req.op, err.Error())
		}
		beOff := (s.lo-beLo)*s.lanes + int(req.off)
		words, err := s.be.SnapshotChunk(ctx, req.epoch, beOff, int(want))
		if err != nil {
			return appendErrResponse(dst, req.op, err.Error())
		}
		return appendSnapChunk(dst, req.epoch, s.lo, s.hi, req.off, words)
	}
	return appendErrResponse(dst, frame.OpErr, fmt.Sprintf("shardnet: unknown opcode %#x", req.op))
}

// dispatchAnswers runs an answer-type request over [lo, hi) and encodes
// the response with the epoch the partials were computed at.
func (s *Server) dispatchAnswers(ctx context.Context, req *rpcRequest, dst []byte, lo, hi int) []byte {
	answers, epoch, hasEpoch, err := s.be.AnswerRangeEpoch(ctx, req.keys, lo, hi)
	if err != nil {
		return appendErrResponse(dst, req.op, err.Error())
	}
	return appendAnswers(dst, req.op, answers, s.lanes, epoch, hasEpoch)
}

// checkWritesHeld enforces the node's authoritative row range on an
// update batch: a write outside it would land in rows this node serves as
// zero-filled garbage — the loud refusal the held-range check exists for.
func (s *Server) checkWritesHeld(req *rpcRequest, dst []byte) []byte {
	for i, w := range req.writes {
		if w.Row < uint64(s.lo) || w.Row >= uint64(s.hi) {
			return appendErrResponse(dst, req.op,
				fmt.Sprintf("shardnet: write %d targets row %d outside the rows [%d,%d) this node holds", i, w.Row, s.lo, s.hi))
		}
	}
	return nil
}
