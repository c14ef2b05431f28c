package shardnet

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"gpudpf/internal/dpf"
	"gpudpf/internal/engine"
	"gpudpf/internal/frame"
)

// parkingMember parks every range answer on its context and reports when
// that context ended.
type parkingMember struct {
	*engine.Replica
	started, ended chan struct{}
	once           sync.Once
}

func (m *parkingMember) AnswerRangeEpoch(ctx context.Context, keys [][]byte, lo, hi int) ([][]uint32, uint64, bool, error) {
	m.once.Do(func() { close(m.started) })
	<-ctx.Done()
	close(m.ended)
	return nil, 0, false, ctx.Err()
}

// TestNodeCancelsWorkWhenPeerLeaves: a client that gives up on an RPC
// retires its connection, and the node then cancels the work it was
// running for it instead of computing for nobody.
func TestNodeCancelsWorkWhenPeerLeaves(t *testing.T) {
	tab := buildTable(t, 64, 2, 31)
	rep := newReplica(t, tab, engine.Config{Party: 0})
	m := &parkingMember{Replica: rep, started: make(chan struct{}), ended: make(chan struct{})}
	_, addr := startNode(t, m, ServerConfig{})
	c, err := Dial(addr, Options{PRG: rep.PRGName(), Early: rep.EarlyBits(), Party: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	keys, _ := genKeys(t, dpf.NewAESPRG(), tab.Bits(), []uint64{5}, 32)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	go func() {
		_, err := answerRange(ctx, c, keys, 0, 64)
		errc <- err
	}()
	select {
	case <-m.started:
	case <-time.After(10 * time.Second):
		t.Fatal("the node never started the request")
	}
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled RPC returned %v, want context.Canceled", err)
	}
	select {
	case <-m.ended:
	case <-time.After(time.Second):
		t.Fatal("the node's work outlived its departed peer by 1s")
	}
}

// TestNodeStalledFrameCut: a peer that stops mid-frame after its hello —
// inside the header, after it, or half way through the body — is hung up
// on once ReadTimeout passes, while an honest client on the same node is
// served, and no goroutine outlives Close.
func TestNodeStalledFrameCut(t *testing.T) {
	before := runtime.NumGoroutine()
	tab := buildTable(t, 64, 2, 33)
	rep := newReplica(t, tab, engine.Config{Party: 0})
	const readTimeout = 200 * time.Millisecond
	srv, err := NewServer(rep, ServerConfig{ReadTimeout: readTimeout})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(l) }()
	addr := l.Addr().String()

	keys, _ := genKeys(t, dpf.NewAESPRG(), tab.Bits(), []uint64{9}, 34)
	request := encode(t, frame.Begin(nil), &request{op: opAnswerRange, keys: keys, lo: 0, hi: 64})
	binary.LittleEndian.PutUint32(request, uint32(len(request)-frame.HeaderLen))
	type stall struct {
		conn net.Conn
		sent time.Time
	}
	var stalled []stall
	for _, n := range []int{2, frame.HeaderLen, frame.HeaderLen + (len(request)-frame.HeaderLen)/2} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := rawHello(t, conn, hello{Version: ProtocolVersion, Party: 0}); err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(request[:n]); err != nil {
			t.Fatal(err)
		}
		stalled = append(stalled, stall{conn, time.Now()})
	}

	c, err := Dial(addr, Options{PRG: rep.PRGName(), Party: 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := answerRange(context.Background(), c, keys, 0, 64); err != nil {
		t.Errorf("honest client beside stalled peers: %v", err)
	}
	for i, s := range stalled {
		s.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		if n, err := s.conn.Read(make([]byte, 16)); err != io.EOF {
			t.Errorf("stalled peer %d: read %d bytes, %v; want the node's hang-up", i, n, err)
		} else if held := time.Since(s.sent); held < readTimeout*3/4 {
			t.Errorf("stalled peer %d hung up on after %v, before the %v read timeout", i, held, readTimeout)
		}
	}
	// The honest connection sat through the cuts.
	if _, err := answerRange(context.Background(), c, keys, 0, 64); err != nil {
		t.Errorf("honest client after the cuts: %v", err)
	}
	c.Close()
	srv.Close()
	if err := <-served; err != nil {
		t.Errorf("serve: %v", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines before, %d after Close", before, after)
	}
}
