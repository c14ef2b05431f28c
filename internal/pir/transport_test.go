package pir

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gpudpf/internal/engine"
	"gpudpf/internal/frame"
)

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
	body, err := frame.Read(conn, MaxResponseBytes, &buf)
	if err != nil {
		t.Fatalf("reading the refusal: %v", err)
	}
	if body[0] != frame.OpErr || body[1] != frame.StatusErr {
		t.Fatalf("refusal frame op=%#x status=%d", body[0], body[1])
	}
	_, _, refusal := frame.ResponseHeader(frame.NewReader(body), opAnswer)
	// Half-close, so a server draining what it refused sees the end of it.
	conn.(*net.TCPConn).CloseWrite()
	if _, err := frame.Read(conn, MaxResponseBytes, &buf); err == nil {
		t.Fatal("connection survived a refused frame")
	}
	return refusal
}

// TestServeRejectsOversizedRequest: a peer declaring a request frame over
// MaxRequestBytes gets the named protocol error back and its connection
// closed — and the server keeps serving well-behaved clients afterwards.
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
	huge := frame.Begin(make([]byte, 0, MaxRequestBytes+(1<<20)))
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

// countingConn counts the bytes a Remote moves each way.
type countingConn struct {
	net.Conn
	up, down int
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.up += n
	return n, err
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.down += n
	return n, err
}

// TestWireCost pins the communication the paper counts per query: a request
// of n keys of length k costs exactly 4+1+4+n·(4+k) bytes, and its n × lanes
// answer the fixed 4+1+1+4+4 header plus 4·n·lanes.
func TestWireCost(t *testing.T) {
	for _, tc := range []struct{ rows, lanes, n int }{
		{64, 2, 1},
		{64, 2, 32},
		{1 << 10, 64, 1},
		{1 << 12, 16, 7},
		{256, 1024, 32},
	} {
		tab := testTable(t, tc.rows, tc.lanes)
		conn, err := net.Dial("tcp", startServer(t, tab))
		if err != nil {
			t.Fatal(err)
		}
		cc := &countingConn{Conn: conn}
		e0 := &Remote{conn: cc, br: bufio.NewReader(cc)}
		keys := testKeys(t, tc.rows, tc.n)
		k := len(keys[0])
		if _, err := e0.Answer(keys); err != nil {
			t.Fatal(err)
		}
		e0.Close()
		if want := 4 + 1 + 4 + tc.n*(4+k); cc.up != want {
			t.Errorf("%d keys of %d bytes: request cost %d bytes, want %d", tc.n, k, cc.up, want)
		}
		if want := 4 + 1 + 1 + 4 + 4 + 4*tc.n*tc.lanes; cc.down != want {
			t.Errorf("%d×%d answer cost %d bytes, want %d", tc.n, tc.lanes, cc.down, want)
		}
	}
}

// TestMalformedRequests: every malformed body of the three client ops ends
// in the named protocol error on the wire, a closed connection, and a
// listener that still serves.
func TestMalformedRequests(t *testing.T) {
	tab := testTable(t, 64, 2)
	addr := startServer(t, tab)
	answer := appendRequest(nil, opAnswer, testKeys(t, tab.NumRows, 2), nil)
	update := appendRequest(nil, opUpdateBatch, nil, []engine.RowWrite{{Row: 3, Vals: []uint32{1, 2}}})
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
		{"answer count beyond the frame", binary.LittleEndian.AppendUint32([]byte{opAnswer}, 1<<30), "keys declared"},
		{"answer count over the cap", appendRequest(nil, opAnswer, make([][]byte, MaxRequestKeys+1), nil), "key cap"},
		{"update trailing bytes", append(bytes.Clone(update), 0), "trailing bytes"},
		{"update truncated values", update[:len(update)-1], "lanes"},
		{"update truncated count", update[:2], "truncated write count"},
		{"stats trailing bytes", []byte{opStats, 0}, "trailing bytes"},
	} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if err := frame.Write(conn, append(frame.Begin(nil), tc.body...), MaxRequestBytes); err != nil {
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
			if _, err := frame.Read(conn, MaxRequestBytes, &buf); err != nil {
				return
			}
			if requests.Add(1) == 1 {
				// A header declaring one byte over the client's cap.
				conn.Write(binary.LittleEndian.AppendUint32(nil, MaxResponseBytes+1))
				continue
			}
			frame.Write(conn, appendWords(frame.Begin(nil), opStats, 1, 2, 3), MaxResponseBytes)
		}
	}()
	e0, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer e0.Close()
	_, first := e0.Answer([][]byte{{1, 2, 3}})
	if !errors.Is(first, ErrResponseTooLarge) {
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
	go func() { served <- serve(l, s0, bodyTimeout) }()
	addr := l.Addr().String()

	idle, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	keys := testKeys(t, tab.NumRows, 2)
	request := appendRequest(frame.Begin(nil), opAnswer, keys, nil)
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
// not fit MaxResponseBytes (answers scale with lanes, requests with key
// bytes) is told why, and the connection — nothing was sent — keeps serving.
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
	over := MaxResponseBytes/(4*len(row)) + 1
	if _, err := e0.Answer(make([][]byte, over)); err == nil || !strings.Contains(err.Error(), "frame cap; narrow the batch") {
		t.Fatalf("%d×%d answer: %v, want the response cap named", over, len(row), err)
	}
	if answers, err := e0.Answer(make([][]byte, 2)); err != nil || len(answers) != 2 {
		t.Fatalf("connection unusable after an oversized response: %v", err)
	}
}
