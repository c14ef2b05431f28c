package pir

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"gpudpf/internal/engine"
	"gpudpf/internal/frame"
	"gpudpf/internal/serving"
)

// Answerer is anything that can answer a marshaled key batch: a Server, an
// engine backend adapter, or a serving.Batcher front door.
type Answerer interface {
	Answer(keys [][]byte) ([][]uint32, error)
}

// BatchUpdater is the optional update capability of an Answerer: install a
// batch of row writes as one atomic table epoch and report the new epoch.
// *Server and serving.Front implement it; Serve probes for it to handle
// the wire update op.
type BatchUpdater interface {
	UpdateBatch(writes []engine.RowWrite) (uint64, error)
}

// Endpoint is one PIR server as seen by a client: in-process for
// simulation, or remote over TCP for a real two-cloud deployment.
type Endpoint interface {
	Answerer
	// Close releases the endpoint.
	Close() error
}

// InProcess wraps any Answerer (typically a *Server) as an Endpoint
// without a network.
type InProcess struct{ Server Answerer }

// Answer implements Endpoint.
func (e InProcess) Answer(keys [][]byte) ([][]uint32, error) { return e.Server.Answer(keys) }

// Close implements Endpoint.
func (e InProcess) Close() error { return nil }

// The client protocol is lockstep request/response frames (internal/frame,
// the framing shardnet speaks too): a request body is an op byte and its
// payload, a response body op, status and payload. An answer request and an
// update-batch request are byte for byte shardnet's Answer and UpdateBatch
// frames, hence the shared op values.
const (
	opAnswer      byte = 0x01 // keys → n, lanes, n·lanes share words
	opUpdateBatch byte = 0x06 // row writes → installed epoch
	opStats       byte = 0x0e // nothing → accepted, shed, epoch retries
)

// statusOverloaded is the named failure status of a request shed by
// admission control. A Remote maps it back to serving.ErrOverloaded, so a
// load generator can count sheds as sheds with errors.Is instead of
// parsing message strings.
const statusOverloaded byte = 2

// MaxRequestBytes caps one request frame accepted by Serve. It is far
// above any legitimate batch (a key is a few hundred bytes; 8 MiB holds
// ~20k of them) but keeps a hostile peer from making the server allocate
// arbitrarily for a length it merely declared.
const MaxRequestBytes = 8 << 20

// ErrRequestTooLarge is the named protocol error a connection gets (and
// serveConn answers with) when a request frame declares more than
// MaxRequestBytes; the connection is closed afterwards.
var ErrRequestTooLarge = fmt.Errorf("pir: request exceeds the %d-byte frame cap", MaxRequestBytes)

// MaxResponseBytes caps one response frame a Remote client accepts — the
// mirror of MaxRequestBytes: answers scale with batch × lanes (a 512-key
// batch over 2 KiB rows — 512 lanes — is ~1 MiB), and a hostile or
// misdialed peer must not be able to make the CLIENT allocate arbitrarily
// either.
const MaxResponseBytes = 64 << 20

// ErrResponseTooLarge is the named error a Remote returns when the server
// declares a response over MaxResponseBytes.
var ErrResponseTooLarge = fmt.Errorf("pir: response exceeds the %d-byte frame cap", MaxResponseBytes)

// MaxRequestKeys caps the keys of one answer request, enforced in the
// parser before any per-key allocation: the byte cap alone would let a
// frame of near-empty keys buy millions of slice headers, key structs and
// partials before the first key fails to unmarshal.
const MaxRequestKeys = 4096

const (
	// requestBodyTimeout bounds how long the rest of a request may take
	// once its first byte has arrived, so a peer that stalls behind a
	// header or half a body cannot pin its connection's goroutine. Between
	// requests a connection may idle indefinitely.
	requestBodyTimeout = 10 * time.Second
	// refusalDrainTimeout bounds the drain that follows a refused frame.
	refusalDrainTimeout = 5 * time.Second
)

// appendRequest encodes one request body; keys or writes is the payload of
// the op that carries one.
func appendRequest(dst []byte, op byte, keys [][]byte, writes []engine.RowWrite) []byte {
	dst = append(dst, op)
	switch op {
	case opAnswer:
		dst = frame.AppendKeys(dst, keys)
	case opUpdateBatch:
		dst = frame.AppendWrites(dst, writes)
	}
	return dst
}

// parseRequest decodes one request body. The keys alias body.
func parseRequest(body []byte) (op byte, keys [][]byte, writes []engine.RowWrite, err error) {
	r := frame.NewReader(body)
	switch op = r.U8(); op {
	case opAnswer:
		keys, err = frame.ParseKeys(r, MaxRequestKeys)
	case opUpdateBatch:
		writes, err = frame.ParseWrites(r)
	case opStats:
	default:
		err = fmt.Errorf("%w: unknown opcode %#x", frame.ErrProtocol, op)
	}
	if err == nil && r.Remaining() != 0 {
		err = fmt.Errorf("%w: %d trailing bytes after %#x request", frame.ErrProtocol, r.Remaining(), op)
	}
	return op, keys, writes, err
}

// appendAnswers encodes a successful answer response: the matrix shape,
// then its words.
func appendAnswers(dst []byte, answers [][]uint32) []byte {
	dst = append(dst, opAnswer, frame.StatusOK)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(answers)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(answers[0])))
	return frame.AppendMatrix(dst, answers)
}

// parseAnswers decodes an answer response from behind its op and status.
func parseAnswers(r *frame.Reader, wantKeys int) ([][]uint32, error) {
	n, lanes := r.U32(), r.U32()
	if r.Bad() {
		return nil, fmt.Errorf("%w: truncated answer header", frame.ErrProtocol)
	}
	return frame.ParseMatrix(r, n, lanes, wantKeys)
}

// appendWords / parseWords encode the fixed-width success payloads: an
// update's installed epoch, the three serving counters.
func appendWords(dst []byte, op byte, words ...uint64) []byte {
	dst = append(dst, op, frame.StatusOK)
	for _, w := range words {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	return dst
}

func parseWords(r *frame.Reader, words ...*uint64) error {
	for _, w := range words {
		*w = r.U64()
	}
	if r.Bad() || r.Remaining() != 0 {
		return fmt.Errorf("%w: malformed %d-word response", frame.ErrProtocol, len(words))
	}
	return nil
}

// appendFailure encodes a request that was understood and failed.
func appendFailure(dst []byte, op byte, err error) []byte {
	status := frame.StatusErr
	if errors.Is(err, serving.ErrOverloaded) {
		status = statusOverloaded
	}
	return frame.AppendErr(dst, op, status, err.Error())
}

// Serve runs a blocking accept loop answering PIR requests on l. Each
// connection carries a stream of request/response frame pairs. Serve
// returns when the listener closes. s may be a *Server or any other
// request path (e.g. a batching front door over an engine replica); the
// keys it is handed alias the connection's read buffer and must not be
// kept past its return.
func Serve(l net.Listener, s Answerer) error { return serve(l, s, requestBodyTimeout) }

func serve(l net.Listener, s Answerer, bodyTimeout time.Duration) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return fmt.Errorf("pir: accept: %w", err)
		}
		go serveConn(conn, s, bodyTimeout)
	}
}

func serveConn(conn net.Conn, s Answerer, bodyTimeout time.Duration) {
	defer conn.Close()
	br := bufio.NewReader(conn)
	var in, out []byte
	for {
		// An idle connection may wait for its next request indefinitely: the
		// deadline starts at the request's first byte, which Peek leaves for
		// frame.Read.
		if _, err := br.Peek(1); err != nil {
			return // EOF or broken peer; nothing to report on this side
		}
		conn.SetReadDeadline(time.Now().Add(bodyTimeout))
		body, err := frame.Read(br, MaxRequestBytes, &in)
		if err == nil {
			conn.SetReadDeadline(time.Time{})
			out, err = handle(s, body, frame.Begin(out))
		}
		if err != nil {
			refuse(conn, br, err)
			return
		}
		if err = frame.Write(conn, out, MaxResponseBytes); errors.Is(err, frame.ErrTooLarge) {
			// Nothing was sent, so the stream is intact: tell the client why
			// it gets no answers, and do not keep the oversized buffer.
			out = frame.AppendErr(frame.Begin(nil), body[0], frame.StatusErr, ErrResponseTooLarge.Error()+"; narrow the batch")
			err = frame.Write(conn, out, MaxResponseBytes)
		}
		if err != nil {
			return
		}
	}
}

// refuse names a frame-level violation to the peer before serveConn hangs
// up: the stream position is unrecoverable past a refused frame. A read
// that merely failed (EOF, a stalled body's deadline) has nobody to tell.
func refuse(conn net.Conn, br *bufio.Reader, err error) {
	tooLarge := errors.Is(err, frame.ErrTooLarge)
	if tooLarge {
		err = ErrRequestTooLarge
	} else if !errors.Is(err, frame.ErrProtocol) {
		return
	}
	_ = frame.Write(conn, frame.AppendErr(frame.Begin(nil), frame.OpErr, frame.StatusErr, err.Error()), MaxResponseBytes)
	if !tooLarge {
		return
	}
	// The refused frame's payload is likely still queued in the kernel
	// receive buffer; closing over unread bytes RSTs the connection and
	// discards the reply we just sent before the peer can read it. Drain
	// until the peer hangs up, under a deadline and a byte bound: past
	// maxDrainBytes the peer is not a confused client worth a graceful
	// goodbye; let the reset happen.
	const maxDrainBytes = 2 * MaxRequestBytes
	conn.SetReadDeadline(time.Now().Add(refusalDrainTimeout))
	_, _ = io.CopyN(io.Discard, br, maxDrainBytes)
}

// handle executes one request against the server's request path and
// encodes the response behind dst. An error means the body was malformed.
func handle(s Answerer, body, dst []byte) ([]byte, error) {
	op, keys, writes, err := parseRequest(body)
	if err != nil {
		return dst, err
	}
	switch op {
	case opAnswer:
		if len(keys) == 0 {
			err = errors.New("pir: answer request carries no keys")
			break
		}
		var answers [][]uint32
		if answers, err = s.Answer(keys); err == nil && len(answers) != len(keys) {
			err = fmt.Errorf("pir: %d answers for %d keys", len(answers), len(keys))
		}
		if err == nil {
			return appendAnswers(dst, answers), nil
		}
	case opUpdateBatch:
		up, ok := s.(BatchUpdater)
		if !ok {
			err = errors.New("pir: server does not accept updates")
			break
		}
		var epoch uint64
		if epoch, err = up.UpdateBatch(writes); err == nil {
			return appendWords(dst, op, epoch), nil
		}
	case opStats:
		src, ok := s.(serving.StatsSource)
		if !ok {
			err = errors.New("pir: server does not report serving stats")
			break
		}
		stats := src.ServingStats()
		return appendWords(dst, op, stats.Accepted, stats.Shed, stats.EpochRetries), nil
	}
	return appendFailure(dst, op, err), nil
}

// Remote is a TCP Endpoint. It is safe for concurrent use; requests are
// serialized over one connection.
type Remote struct {
	mu   sync.Mutex
	conn net.Conn
	br   *bufio.Reader
	buf  []byte // the request frame, then the response body
	// err is the first send, receive or protocol error. The stream position
	// is unknown past it — the next read would decode the tail of an old
	// reply — so every later call returns it without touching the socket.
	err error
}

// Dial connects to a PIR server started with Serve.
func Dial(addr string) (*Remote, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("pir: dial %s: %w", addr, err)
	}
	return &Remote{conn: conn, br: bufio.NewReader(conn)}, nil
}

// roundTrip sends one request and hands the payload of a successful
// response to parse. A failure the server reports — a shed request comes
// back as serving.ErrOverloaded, so errors.Is works across the network
// boundary — leaves the connection usable; any other failure retires it.
func (r *Remote) roundTrip(op byte, keys [][]byte, writes []engine.RowWrite, parse func(*frame.Reader) error) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err != nil {
		return r.err
	}
	r.buf = appendRequest(frame.Begin(r.buf), op, keys, writes)
	if err := frame.Write(r.conn, r.buf, MaxRequestBytes); errors.Is(err, frame.ErrTooLarge) {
		return fmt.Errorf("%w: %v", ErrRequestTooLarge, err) // refused before a byte was sent
	} else if err != nil {
		return r.fail(fmt.Errorf("pir: send: %w", err))
	}
	body, err := frame.Read(r.br, MaxResponseBytes, &r.buf)
	if errors.Is(err, frame.ErrTooLarge) {
		return r.fail(fmt.Errorf("%w: %v", ErrResponseTooLarge, err))
	} else if err != nil {
		return r.fail(fmt.Errorf("pir: receive: %w", err))
	}
	resp := frame.NewReader(body)
	status, msg, err := frame.ResponseHeader(resp, op)
	if err == nil && status == frame.StatusOK {
		err = parse(resp)
	}
	switch {
	case err != nil:
		return r.fail(fmt.Errorf("pir: receive: %w", err))
	case status == frame.StatusOK:
		return nil
	case status == statusOverloaded:
		return fmt.Errorf("pir: server: %w", serving.ErrOverloaded)
	}
	return fmt.Errorf("pir: server: %s", msg)
}

func (r *Remote) fail(err error) error {
	r.err = err
	return err
}

// Answer implements Endpoint.
func (r *Remote) Answer(keys [][]byte) (answers [][]uint32, err error) {
	err = r.roundTrip(opAnswer, keys, nil, func(resp *frame.Reader) (err error) {
		answers, err = parseAnswers(resp, len(keys))
		return err
	})
	return answers, err
}

// UpdateBatch installs a batch of row writes on the server as one atomic
// table epoch and returns the epoch it installed (the wire face of
// BatchUpdater).
func (r *Remote) UpdateBatch(writes []engine.RowWrite) (epoch uint64, err error) {
	err = r.roundTrip(opUpdateBatch, nil, writes, func(resp *frame.Reader) error {
		return parseWords(resp, &epoch)
	})
	return epoch, err
}

// Stats fetches the server's serving stats (admission outcomes and
// epoch-retry counts) — what the load harness reconciles its own shed and
// retry observations against.
func (r *Remote) Stats() (stats serving.Stats, err error) {
	err = r.roundTrip(opStats, nil, nil, func(resp *frame.Reader) error {
		return parseWords(resp, &stats.Accepted, &stats.Shed, &stats.EpochRetries)
	})
	return stats, err
}

// Close implements Endpoint.
func (r *Remote) Close() error { return r.conn.Close() }

// CommStats records the exact application-layer bytes a fetch moved.
type CommStats struct {
	// UpBytes is the client→servers key traffic (both servers).
	UpBytes int64
	// DownBytes is the servers→client share traffic (both servers).
	DownBytes int64
}

// Total is the full communication cost of the exchange.
func (c CommStats) Total() int64 { return c.UpBytes + c.DownBytes }

// TwoServer drives the complete protocol of Figure 2 against a pair of
// non-colluding endpoints.
type TwoServer struct {
	// Client generates keys and reconstructs rows.
	Client *Client
	// E0 and E1 are the party-0 and party-1 servers.
	E0, E1 Endpoint
}

// Fetch privately retrieves the given rows. Both servers are queried
// concurrently, mirroring the deployment where they are different clouds.
func (ts *TwoServer) Fetch(indices []uint64) ([][]uint32, CommStats, error) {
	var stats CommStats
	if len(indices) == 0 {
		return nil, stats, errors.New("pir: no indices to fetch")
	}
	keys0, keys1, err := ts.Client.QueryBatch(indices)
	if err != nil {
		return nil, stats, err
	}
	for q := range keys0 {
		stats.UpBytes += int64(len(keys0[q]) + len(keys1[q]))
	}

	type result struct {
		answers [][]uint32
		err     error
	}
	ch := make(chan result, 1)
	go func() {
		a, err := ts.E0.Answer(keys0)
		ch <- result{a, err}
	}()
	a1, err1 := ts.E1.Answer(keys1)
	r0 := <-ch
	if r0.err != nil {
		return nil, stats, fmt.Errorf("pir: server 0: %w", r0.err)
	}
	if err1 != nil {
		return nil, stats, fmt.Errorf("pir: server 1: %w", err1)
	}
	if len(r0.answers) != len(indices) || len(a1) != len(indices) {
		return nil, stats, fmt.Errorf("pir: servers returned %d/%d answers for %d queries",
			len(r0.answers), len(a1), len(indices))
	}
	rows := make([][]uint32, len(indices))
	for q := range indices {
		stats.DownBytes += int64(len(r0.answers[q])+len(a1[q])) * 4
		rows[q], err = Reconstruct(r0.answers[q], a1[q])
		if err != nil {
			return nil, stats, err
		}
	}
	return rows, stats, nil
}

// BackendEndpoint adapts any engine.Backend — typically an engine.Cluster
// whose shards live on other machines — as a local Endpoint, so TwoServer
// can drive the two-server protocol with each "server" being a whole
// distributed replica.
type BackendEndpoint struct {
	Backend engine.Backend
}

// Answer implements Endpoint.
func (e BackendEndpoint) Answer(keys [][]byte) ([][]uint32, error) {
	return e.Backend.Answer(context.Background(), keys)
}

// UpdateBatch implements BatchUpdater, so a backend served without a front
// door still takes the wire update op.
func (e BackendEndpoint) UpdateBatch(writes []engine.RowWrite) (uint64, error) {
	return e.Backend.UpdateBatch(context.Background(), writes)
}

// Close implements Endpoint, closing the backend when it is closeable
// (engine.Cluster closes its remote shard clients).
func (e BackendEndpoint) Close() error {
	if closer, ok := e.Backend.(io.Closer); ok {
		return closer.Close()
	}
	return nil
}

var _ Endpoint = InProcess{}
var _ Endpoint = (*Remote)(nil)
var _ Endpoint = BackendEndpoint{}
