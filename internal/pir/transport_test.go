package pir

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gpudpf/internal/dpf"
	"gpudpf/internal/engine"
	"gpudpf/internal/frame"
	"gpudpf/internal/shardnet"
)

// Client-op request bodies, built by hand: the codec lives in shardnet. An
// answer's key batch is count, width and the keys back to back;
// answerRequest takes the width from the first key and checks nothing, so
// it also builds the batches a server must refuse.
func answerRequest(keys [][]byte) []byte {
	b := binary.LittleEndian.AppendUint32([]byte{0x01}, uint32(len(keys)))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(keys[0])))
	for _, k := range keys {
		b = append(b, k...)
	}
	return b
}

// byteKeys is n one-byte keys: the smallest batch the framing carries, for
// tests that need a count and not a key.
func byteKeys(n int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte{1}
	}
	return keys
}

func updateRequest(writes []engine.RowWrite) []byte { return frame.AppendWrites([]byte{0x06}, writes) }

// startServer serves tab on a loopback listener and returns its address.
func startServer(t *testing.T, tab *Table) string {
	t.Helper()
	s0, err := NewServer(0, tab)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go Serve(l, s0)
	return l.Addr().String()
}

func testTable(t *testing.T, rows, lanes int) *Table {
	t.Helper()
	tab, err := NewTable(rows, lanes)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(33))
	for i := range tab.Data {
		tab.Data[i] = rng.Uint32()
	}
	return tab
}

// testKeys returns party-0 keys for n queries against a rows-row table.
func testKeys(t testing.TB, rows, n int) [][]byte {
	t.Helper()
	cl, err := NewClient("aes128", rows, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	indices := make([]uint64, n)
	for i := range indices {
		indices[i] = uint64(i % rows)
	}
	keys0, _, err := cl.QueryBatch(indices)
	if err != nil {
		t.Fatal(err)
	}
	return keys0
}

// mustServe fails the test unless a fresh honest client is answered at addr.
func mustServe(t *testing.T, addr string, rows int) {
	t.Helper()
	e0, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer e0.Close()
	if _, err := e0.Answer(testKeys(t, rows, 1)); err != nil {
		t.Fatalf("server no longer serves honest clients: %v", err)
	}
}

// readRefusal reads the frame a server sends before hanging up on a frame it
// refused, returning the error a client's decoder makes of it, and checks
// that the connection is dead afterwards.
func readRefusal(t *testing.T, conn net.Conn) error {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	var buf []byte
	body, err := frame.Read(conn, shardnet.MaxResponseBytes, &buf)
	if err != nil {
		t.Fatalf("reading the refusal: %v", err)
	}
	if body[0] != frame.OpErr || body[1] != frame.StatusErr {
		t.Fatalf("refusal frame op=%#x status=%d", body[0], body[1])
	}
	var r frame.Reader
	r.Reset(body)
	_, _, refusal := frame.ResponseHeader(&r, 0x01)
	// Half-close, so a server draining what it refused sees the end of it.
	conn.(*net.TCPConn).CloseWrite()
	if _, err := frame.Read(conn, shardnet.MaxResponseBytes, &buf); err == nil {
		t.Fatal("connection survived a refused frame")
	}
	return refusal
}

// TestServeRejectsOversizedRequest: a peer declaring a request frame over
// shardnet.MaxRequestBytes gets the named protocol error back and its
// connection closed — and the server keeps serving well-behaved clients
// afterwards.
func TestServeRejectsOversizedRequest(t *testing.T) {
	tab := testTable(t, 64, 2)
	addr := startServer(t, tab)

	// A header declaring a 512 MiB frame, no payload: the server must
	// refuse on the header alone.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(binary.LittleEndian.AppendUint32(nil, 512<<20)); err != nil {
		t.Fatal(err)
	}
	if err := readRefusal(t, conn); !errors.Is(err, frame.ErrProtocol) || !strings.Contains(err.Error(), "frame cap") {
		t.Fatalf("refusal %v does not name the frame cap", err)
	}

	// A peer that has already written the entire oversized payload (as a
	// real client does before reading) must still RECEIVE the named error:
	// the server drains the queued bytes before closing so the reply is not
	// destroyed by a reset over unread data.
	full, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()
	huge := frame.Begin(make([]byte, 0, shardnet.MaxRequestBytes+(1<<20)))
	huge = huge[:cap(huge)]
	binary.LittleEndian.PutUint32(huge, uint32(len(huge)-frame.HeaderLen))
	if _, err := full.Write(huge); err != nil {
		t.Fatal(err)
	}
	if err := readRefusal(t, full); !strings.Contains(err.Error(), "frame cap") {
		t.Fatalf("refusal %v after a full oversized payload does not name the frame cap", err)
	}

	mustServe(t, addr, tab.NumRows)
}

// TestServeAcceptsLargeLegitimateBatch: a batch well under the cap but far
// beyond one TCP segment still round-trips — the cap must not bite real
// traffic.
func TestServeAcceptsLargeLegitimateBatch(t *testing.T) {
	tab := testTable(t, 256, 2)
	addr := startServer(t, tab)
	e0, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer e0.Close()
	keys0 := testKeys(t, tab.NumRows, 512)
	answers, err := e0.Answer(keys0)
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != len(keys0) {
		t.Fatalf("%d answers for %d keys", len(answers), len(keys0))
	}
}

// countingListener counts the bytes its connections move each way: the
// server reads what the client sent up and writes what comes down.
type countingListener struct {
	net.Listener
	up, down atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	return countingConn{conn, l}, err
}

type countingConn struct {
	net.Conn
	l *countingListener
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.l.up.Add(int64(n))
	return n, err
}

// Write counts before it sends, so the count is in by the time the client
// has read the reply.
func (c countingConn) Write(p []byte) (int, error) {
	c.l.down.Add(int64(len(p)))
	return c.Conn.Write(p)
}

// TestWireCost pins the communication the paper counts per query: a request
// of n keys of length k costs exactly 13+n·k bytes (frame length, op, key
// count, key width, keys), and its n × lanes answer the fixed 4+1+1+4+4
// header plus 4·n·lanes.
func TestWireCost(t *testing.T) {
	for _, tc := range []struct{ rows, lanes, n int }{
		{64, 2, 1},
		{64, 2, 32},
		{1 << 10, 64, 1},
		{1 << 12, 16, 7},
		{256, 1024, 32},
	} {
		tab := testTable(t, tc.rows, tc.lanes)
		s0, err := NewServer(0, tab)
		if err != nil {
			t.Fatal(err)
		}
		inner, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		cc := &countingListener{Listener: inner}
		go Serve(cc, s0)
		e0, err := Dial(inner.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		keys := testKeys(t, tc.rows, tc.n)
		k := len(keys[0])
		if _, err := e0.Answer(keys); err != nil {
			t.Fatal(err)
		}
		e0.Close()
		inner.Close()
		if want := 13 + tc.n*k; cc.up.Load() != int64(want) {
			t.Errorf("%d keys of %d bytes: request cost %d bytes, want %d", tc.n, k, cc.up.Load(), want)
		}
		if want := 4 + 1 + 1 + 4 + 4 + 4*tc.n*tc.lanes; cc.down.Load() != int64(want) {
			t.Errorf("%d×%d answer cost %d bytes, want %d", tc.n, tc.lanes, cc.down.Load(), want)
		}
	}
}

// TestServeRefusesKeyWireV2: a Serve front serves key wire v3 only. A
// single-key request — whose bytes are the same in the protocol-4 and the
// protocol-5 key-batch framing, so an old client's request parses — carrying
// a v2 key is refused with both wire versions named, and the same key in
// v3 is answered on the same connection.
func TestServeRefusesKeyWireV2(t *testing.T) {
	tab := testTable(t, 64, 2)
	e0, err := Dial(startServer(t, tab))
	if err != nil {
		t.Fatal(err)
	}
	defer e0.Close()
	k0, _, err := dpf.Gen(dpf.NewAESPRG(), 9, dpf.DomainBits(tab.NumRows), []uint32{1}, rand.New(rand.NewSource(35)))
	if err != nil {
		t.Fatal(err)
	}
	v3, err := k0.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	k0.Wire = 2
	v2, err := k0.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	_, err = e0.Answer([][]byte{v2})
	if err == nil {
		t.Fatal("a wire-v2 key was answered")
	}
	for _, want := range []string{"pir: server:", "key wire v2", "serves key wire v3"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("refusal %q does not name %q", err, want)
		}
	}
	if _, err := e0.Answer([][]byte{v3}); err != nil {
		t.Fatalf("the same key in wire v3: %v", err)
	}
}

// acceptCounter counts the connections its listener accepts.
type acceptCounter struct {
	net.Listener
	n atomic.Int32
}

func (l *acceptCounter) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err == nil {
		l.n.Add(1)
	}
	return conn, err
}

// TestRemoteHoldsOneConnection: concurrent calls on one Remote, pinned or
// not, take turns on the one connection it dialed — a load harness's count
// of Remotes is its count of connections — and each gets its own answers.
func TestRemoteHoldsOneConnection(t *testing.T) {
	tab := testTable(t, 64, 2)
	s0, err := NewServer(0, tab)
	if err != nil {
		t.Fatal(err)
	}
	for _, pin := range [][]shardnet.Options{nil, {{PRG: "aes128", Early: dpf.DefaultEarlyBits, Rows: tab.NumRows}}} {
		inner, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		l := &acceptCounter{Listener: inner}
		go Serve(l, s0)
		e0, err := Dial(inner.Addr().String(), pin...)
		if err != nil {
			t.Fatal(err)
		}
		keys := testKeys(t, tab.NumRows, 3)
		want, err := s0.Answer(keys)
		if err != nil {
			t.Fatal(err)
		}
		errs := make(chan error, 16)
		for range cap(errs) {
			go func() {
				got, err := e0.Answer(keys)
				if err == nil {
					for q := range want {
						if !slices.Equal(got[q], want[q]) {
							err = errors.New("answers diverge from the server's")
						}
					}
				}
				errs <- err
			}()
		}
		for range cap(errs) {
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
		}
		e0.Close()
		inner.Close()
		if n := l.n.Load(); n != 1 {
			t.Fatalf("pin %v: %d concurrent calls opened %d connections, want 1", pin, cap(errs), n)
		}
	}
}

// TestMalformedRequests: every malformed body of the three client ops ends
// in the named protocol error on the wire, a closed connection, and a
// listener that still serves.
func TestMalformedRequests(t *testing.T) {
	tab := testTable(t, 64, 2)
	addr := startServer(t, tab)
	keys := testKeys(t, tab.NumRows, 2)
	answer := answerRequest(keys)
	update := updateRequest([]engine.RowWrite{{Row: 3, Vals: []uint32{1, 2}}})
	for _, tc := range []struct {
		name string
		body []byte
		want string
	}{
		{"unknown opcode", []byte{0x7f}, "unknown opcode"},
		{"shardnet-only opcode", []byte{0x02, 0, 0, 0, 0}, "unknown opcode"},
		{"answer trailing bytes", append(bytes.Clone(answer), 0), "trailing bytes"},
		{"answer truncated key", answer[:len(answer)-1], "truncated key"},
		{"answer truncated count", answer[:3], "truncated key count"},
		{"answer count beyond the frame", binary.LittleEndian.AppendUint32([]byte{0x01}, 1<<30), "keys declared"},
		{"answer count over the cap", answerRequest(byteKeys(shardnet.DefaultMaxBatch + 1)), "key cap"},
		{"answer count zero", binary.LittleEndian.AppendUint32([]byte{0x01}, 0), "no keys"},
		{"answer width zero", answerRequest([][]byte{{}}), "zero-width"},
		{"answer truncated width", answer[:7], "truncated key width"},
		{"answer mixed widths", answerRequest([][]byte{keys[0], keys[1][1:]}), "mixed-width"},
		{"answer width over the frame", binary.LittleEndian.AppendUint32(answer[:5:5], 1<<31), "truncated key"},
		{"update trailing bytes", append(bytes.Clone(update), 0), "trailing bytes"},
		{"update truncated values", update[:len(update)-1], "lanes"},
		{"update truncated count", update[:2], "truncated write count"},
		{"stats trailing bytes", []byte{0x0e, 0}, "trailing bytes"},
	} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if err := frame.Write(conn, append(frame.Begin(nil), tc.body...), shardnet.MaxRequestBytes); err != nil {
			t.Fatal(err)
		}
		if err := readRefusal(t, conn); !errors.Is(err, frame.ErrProtocol) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: refusal %v, want a protocol error naming %q", tc.name, err, tc.want)
		}
		conn.Close()
		mustServe(t, addr, tab.NumRows)
	}
	// An empty frame is refused by the frame reader itself.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(frame.Begin(nil)); err != nil {
		t.Fatal(err)
	}
	if err := readRefusal(t, conn); !errors.Is(err, frame.ErrProtocol) {
		t.Errorf("empty frame: refusal %v", err)
	}
	mustServe(t, addr, tab.NumRows)
}

// TestRemotePoisonedAfterTransportError: once a round trip fails at the
// transport level the connection is mid-message, so every later call must
// return that first error without touching the socket — the peer here would
// answer a second request with what looks like a valid reply. Errors the
// server reports leave the connection usable.
func TestRemotePoisonedAfterTransportError(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var requests atomic.Int32
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		var buf []byte
		for {
			if _, err := frame.Read(conn, shardnet.MaxRequestBytes, &buf); err != nil {
				return
			}
			if requests.Add(1) == 1 {
				// A header declaring one byte over the client's cap.
				conn.Write(binary.LittleEndian.AppendUint32(nil, shardnet.MaxResponseBytes+1))
				continue
			}
			stats := append(frame.Begin(nil), 0x0e, frame.StatusOK)
			frame.Write(conn, append(stats, make([]byte, 3*8)...), shardnet.MaxResponseBytes)
		}
	}()
	e0, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer e0.Close()
	_, first := e0.Answer([][]byte{{1, 2, 3}})
	if !errors.Is(first, shardnet.ErrResponseTooLarge) {
		t.Fatalf("over-cap response: %v, want ErrResponseTooLarge", first)
	}
	if _, err := e0.Stats(); err != first {
		t.Fatalf("call after a transport error: %v, want the first error %v", err, first)
	}
	if _, err := e0.UpdateBatch([]engine.RowWrite{{Row: 1, Vals: []uint32{1}}}); err != first {
		t.Fatalf("second call after a transport error: %v", err)
	}
	if n := requests.Load(); n != 1 {
		t.Fatalf("poisoned Remote sent %d requests, want 1", n)
	}

	// A server-reported error does not poison.
	tab := testTable(t, 64, 2)
	ok, err := Dial(startServer(t, tab))
	if err != nil {
		t.Fatal(err)
	}
	defer ok.Close()
	if _, err := ok.Answer([][]byte{{1, 2, 3}}); err == nil || !strings.Contains(err.Error(), "pir: server:") {
		t.Fatalf("garbage key: %v, want a server-reported error", err)
	}
	if _, err := ok.Answer(nil); err == nil || !strings.Contains(err.Error(), "no keys") {
		t.Fatalf("empty batch: %v", err)
	}
	if _, err := ok.Answer(testKeys(t, tab.NumRows, 3)); err != nil {
		t.Fatalf("connection unusable after server-reported errors: %v", err)
	}
}

// TestStalledRequestDoesNotPinServe is the half-written frame against the
// front door: a peer that sends part of a header, a header, or half a body
// and then stalls is hung up on once the body deadline passes, an honest
// client on the same listener is served meanwhile, an idle connection is
// not hung up on, and no goroutine outlives the listener's close.
func TestStalledRequestDoesNotPinServe(t *testing.T) {
	before := runtime.NumGoroutine()
	tab := testTable(t, 64, 2)
	s0, err := NewServer(0, tab)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	const bodyTimeout = 200 * time.Millisecond
	served := make(chan error, 1)
	go func() { served <- shardnet.NewFront(s0, nil, shardnet.ServerConfig{ReadTimeout: bodyTimeout}).Serve(l) }()
	addr := l.Addr().String()

	idle, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	keys := testKeys(t, tab.NumRows, 2)
	request := append(frame.Begin(nil), answerRequest(keys)...)
	binary.LittleEndian.PutUint32(request, uint32(len(request)-frame.HeaderLen))
	var stalled []net.Conn
	for _, sent := range []int{2, frame.HeaderLen, frame.HeaderLen + (len(request)-frame.HeaderLen)/2} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write(request[:sent]); err != nil {
			t.Fatal(err)
		}
		stalled = append(stalled, conn)
	}
	mustServe(t, addr, tab.NumRows)
	for i, conn := range stalled {
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		if n, err := conn.Read(make([]byte, 16)); err != io.EOF {
			t.Errorf("stalled connection %d: read %d bytes, %v; want the server's hang-up", i, n, err)
		}
	}
	// The idle connection sat through several body deadlines.
	if _, err := idle.Answer(keys); err != nil {
		t.Errorf("idle connection was not left alone: %v", err)
	}
	idle.Close()
	l.Close()
	if err := <-served; err != nil {
		t.Errorf("serve: %v", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines before, %d after the listener closed", before, after)
	}
}

type answererFunc func(keys [][]byte) ([][]uint32, error)

func (f answererFunc) Answer(keys [][]byte) ([][]uint32, error) { return f(keys) }

// TestServeNamesOversizedResponse: a legitimate request whose answer does
// not fit shardnet.MaxResponseBytes (answers scale with lanes, requests
// with key bytes) is told why, and the connection — nothing was sent —
// keeps serving.
func TestServeNamesOversizedResponse(t *testing.T) {
	row := make([]uint32, 1<<15)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go Serve(l, answererFunc(func(keys [][]byte) ([][]uint32, error) {
		answers := make([][]uint32, len(keys))
		for i := range answers {
			answers[i] = row
		}
		return answers, nil
	}))
	e0, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer e0.Close()
	over := shardnet.MaxResponseBytes/(4*len(row)) + 1
	if _, err := e0.Answer(byteKeys(over)); err == nil || !strings.Contains(err.Error(), "frame cap; narrow the batch") {
		t.Fatalf("%d×%d answer: %v, want the response cap named", over, len(row), err)
	}
	if answers, err := e0.Answer(byteKeys(2)); err != nil || len(answers) != 2 {
		t.Fatalf("connection unusable after an oversized response: %v", err)
	}
}

// foreignPRF is a PRF this build does not compute, chacha20 under its
// construction ID: what a peer built with another construction says in
// its hello. Its bodies are aes128's; only the name and ID are foreign.
type foreignPRF struct{ dpf.PRG }

func (foreignPRF) Name() string         { return "chacha20" }
func (foreignPRF) Construction() uint32 { return 0xc4a_0001 }

// servePair serves both parties of tab over TCP, computing prg (nil:
// aes128), and returns their addresses.
func servePair(t *testing.T, tab *Table, prg dpf.PRG) (addr0, addr1 string) {
	t.Helper()
	var addrs [2]string
	for party := range addrs {
		eng, err := engine.NewReplica(tab, engine.Config{Party: party, PRG: prg})
		if err != nil {
			t.Fatal(err)
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		go Serve(l, &Server{eng: eng})
		addrs[party] = l.Addr().String()
	}
	return addrs[0], addrs[1]
}

// fetchLikePirclient retrieves rows the way cmd/pirclient does: aes128
// keys for its -early / -rows, each server dialed with those pins and its
// party, then TwoServer.Fetch.
func fetchLikePirclient(addr0, addr1 string, rows int, indices []uint64) ([][]uint32, error) {
	client, err := NewClientEarly(dpf.PRGName, rows, 2, nil)
	if err != nil {
		return nil, err
	}
	pin := shardnet.Options{PRG: dpf.PRGName, Early: client.Early(), Rows: rows}
	e0, err := Dial(addr0, pin)
	if err != nil {
		return nil, err
	}
	defer e0.Close()
	pin.Party = 1
	e1, err := Dial(addr1, pin)
	if err != nil {
		return nil, err
	}
	defer e1.Close()
	got, _, err := (&TwoServer{Client: client, E0: e0, E1: e1}).Fetch(indices)
	return got, err
}

// TestDialRefusesMismatchedPRF: a client pinned to aes128 dialing a
// server built with another PRF fails at dial, naming both PRFs; a client
// cannot pin a PRF this build does not compute; pinned only to the
// server's party and rows, it is served.
func TestDialRefusesMismatchedPRF(t *testing.T) {
	tab := testTable(t, 64, 2)
	addr0, _ := servePair(t, tab, foreignPRF{dpf.NewAESPRG()})
	if _, err := Dial(addr0, shardnet.Options{PRG: "aes128", Party: 0}); err == nil {
		t.Fatal("a chacha20 server accepted an aes128 client")
	} else if !strings.Contains(err.Error(), "aes128") || !strings.Contains(err.Error(), "chacha20") {
		t.Fatalf("refusal %q does not name both PRFs", err)
	}
	if _, err := Dial(addr0, shardnet.Options{PRG: "highway", Party: 0}); err == nil || !strings.Contains(err.Error(), "highway") {
		t.Fatalf("a highway pin: %v, want a refusal naming highway", err)
	}
	if _, err := Dial(addr0, shardnet.Options{Party: 1}); err == nil || !strings.Contains(err.Error(), "party-1") {
		t.Fatalf("party-1 pin on a party-0 server: %v", err)
	}
	e0, err := Dial(addr0, shardnet.Options{Party: 0, Rows: tab.NumRows})
	if err != nil {
		t.Fatal(err)
	}
	e0.Close()
}

// TestTwoServerFetchRefusesMismatchedPRF: across mismatched PRFs the
// pirclient path returns an error, not rows — the keys of one PRF would
// evaluate to garbage shares under the other — and with matching flags it
// reconstructs the table.
func TestTwoServerFetchRefusesMismatchedPRF(t *testing.T) {
	tab := testTable(t, 64, 2)
	foreign0, foreign1 := servePair(t, tab, foreignPRF{dpf.NewAESPRG()})
	if rows, err := fetchLikePirclient(foreign0, foreign1, tab.NumRows, []uint64{3}); err == nil {
		t.Fatalf("mismatched PRFs returned rows %v and no error", rows)
	} else if !strings.Contains(err.Error(), "aes128") || !strings.Contains(err.Error(), "chacha20") {
		t.Fatalf("refusal %q does not name both PRFs", err)
	}
	addr0, addr1 := servePair(t, tab, nil)
	if _, err := fetchLikePirclient(addr0, addr1, 2*tab.NumRows, []uint64{3}); err == nil || !strings.Contains(err.Error(), "64 rows") {
		t.Fatalf("mismatched -rows: %v, want the row counts named", err)
	}
	rows, err := fetchLikePirclient(addr0, addr1, tab.NumRows, []uint64{3, 63})
	if err != nil {
		t.Fatal(err)
	}
	for q, idx := range []int{3, 63} {
		for l, v := range tab.Row(idx) {
			if rows[q][l] != v {
				t.Fatalf("row %d lane %d: %d, want %d", idx, l, rows[q][l], v)
			}
		}
	}
}
