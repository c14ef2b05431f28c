package shardnet

import (
	"context"
	"errors"
	"net"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"gpudpf/internal/dpf"
	"gpudpf/internal/engine"
	"gpudpf/internal/strategy"
)

// goid is the calling goroutine's ID, read from its stack header
// ("goroutine 18 [running]:").
func goid() uint64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	id, err := strconv.ParseUint(strings.Fields(string(buf[:n]))[1], 10, 64)
	if err != nil {
		panic(err)
	}
	return id
}

// onGoroutine embeds a node client, as a tracing wrapper does, so it keeps
// the client's capabilities, and records the goroutine each range answer
// runs on.
type onGoroutine struct {
	*Client
	mu   *sync.Mutex
	gids *[]uint64
}

func (m onGoroutine) AnswerRangeEpoch(ctx context.Context, keys [][]byte, lo, hi int) ([][]uint32, uint64, bool, error) {
	m.mu.Lock()
	*m.gids = append(*m.gids, goid())
	m.mu.Unlock()
	return m.Client.AnswerRangeEpoch(ctx, keys, lo, hi)
}

// twoNodeCluster serves tab's halves from two TCP nodes, node i over
// node(i, replica), and returns a cluster over their clients, each wrapped
// by member, with the clients.
func twoNodeCluster(t *testing.T, tab *strategy.Table, node func(int, *engine.Replica) engine.Member, member func(*Client) engine.Member) (*engine.Cluster, []*Client) {
	t.Helper()
	shards := make([]engine.ClusterShard, 2)
	clients := make([]*Client, 2)
	for i := range shards {
		rep := newReplica(t, tab, engine.Config{Party: 0})
		lo, hi := engine.ShardRange(tab.NumRows, i, 2)
		_, addr := startNode(t, node(i, rep), ServerConfig{RowLo: lo, RowHi: hi})
		cl, err := Dial(addr, Options{PRG: rep.PRGName(), Party: 0})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		clients[i] = cl
		shards[i] = engine.ClusterShard{Backend: member(cl), Name: addr}
	}
	c, err := engine.NewCluster(shards...)
	if err != nil {
		t.Fatal(err)
	}
	return c, clients
}

func asIs(_ int, rep *engine.Replica) engine.Member { return rep }

func sameAnswers(t *testing.T, got, want [][]uint32) {
	t.Helper()
	if err := sameShares(got, want); err != nil {
		t.Fatalf("cluster diverges from a single replica: %v", err)
	}
}

// TestClusterChainSendsOnCallerGoroutine: on a TCP cluster whose members
// embed the node client, every shard's range answer of one Answer runs on
// the caller's goroutine — no goroutine is started per request — and the
// merged answer is a single replica's.
func TestClusterChainSendsOnCallerGoroutine(t *testing.T) {
	tab := buildTable(t, 128, 4, 41)
	var mu sync.Mutex
	var gids []uint64
	c, _ := twoNodeCluster(t, tab, asIs, func(cl *Client) engine.Member { return onGoroutine{Client: cl, mu: &mu, gids: &gids} })
	keys, _ := genKeys(t, dpf.NewAESPRG(), tab.Bits(), []uint64{3, 100}, 42)
	want, err := newReplica(t, tab, engine.Config{Party: 0}).Answer(context.Background(), keys)
	if err != nil {
		t.Fatal(err)
	}
	for range 3 {
		gids = gids[:0]
		got, err := c.Answer(context.Background(), keys)
		if err != nil {
			t.Fatal(err)
		}
		sameAnswers(t, got, want)
		if len(gids) != 2 {
			t.Fatalf("%d range answers for a two-shard cluster", len(gids))
		}
		if me := goid(); gids[0] != me || gids[1] != me {
			t.Fatalf("range answers ran on goroutines %v, the caller is %d", gids, me)
		}
	}
}

// TestClusterChainOutlastsRPCTimeout: the shard request a chained pass
// sends from shard 0's send hook may take longer than shard 0's client RPC
// timeout; that time is not shard 0's, so its reply is still read.
func TestClusterChainOutlastsRPCTimeout(t *testing.T) {
	tab := buildTable(t, 128, 4, 43)
	c, clients := twoNodeCluster(t, tab, func(i int, rep *engine.Replica) engine.Member {
		if i == 0 {
			return rep
		}
		return &slowBackend{Replica: rep, delay: 600 * time.Millisecond}
	}, func(cl *Client) engine.Member { return cl })
	clients[0].timeout = 200 * time.Millisecond
	keys, _ := genKeys(t, dpf.NewAESPRG(), tab.Bits(), []uint64{7, 120}, 44)
	want, err := newReplica(t, tab, engine.Config{Party: 0}).Answer(context.Background(), keys)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Answer(context.Background(), keys)
	if err != nil {
		t.Fatalf("a slow second shard failed the first: %v", err)
	}
	sameAnswers(t, got, want)
}

// endsWithin runs call, runs stop once started has fired, and fails unless
// call then returns, within 100 ms, an error wrapping ErrClosed.
func endsWithin(t *testing.T, started <-chan struct{}, stop func(), call func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- call() }()
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("the call never reached the server")
	}
	stop()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("call ended with %v, want an error wrapping ErrClosed", err)
		}
	case <-time.After(100 * time.Millisecond):
		t.Fatal("call still blocked 100 ms after Close")
	}
}

// hungFront is a front's Answerer that never returns on its own.
type hungFront struct {
	started chan struct{}
	once    sync.Once
	release chan struct{}
}

func (h *hungFront) Answer(keys [][]byte) ([][]uint32, error) {
	h.once.Do(func() { close(h.started) })
	<-h.release
	return nil, errors.New("released")
}

// TestDialClientCloseEndsCall: Close ends a DialClient call blocked on a
// front that never answers (no RPC timeout, a context that cannot end), a
// call queued behind it on the client's one connection, and refuses any
// later call without dialing.
func TestDialClientCloseEndsCall(t *testing.T) {
	h := &hungFront{started: make(chan struct{}), release: make(chan struct{})}
	defer close(h.release)
	srv := NewFront(h, nil, ServerConfig{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()
	cl, err := DialClient(l.Addr().String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	keys := [][]byte{make([]byte, 8)}
	queued := make(chan error, 1)
	endsWithin(t, h.started, func() {
		go func() { _, err := cl.Answer(context.Background(), keys); queued <- err }()
		time.Sleep(20 * time.Millisecond) // no event marks the wait for the connection
		cl.Close()
	}, func() error { _, err := cl.Answer(context.Background(), keys); return err })
	select {
	case err := <-queued:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("queued call ended with %v, want an error wrapping ErrClosed", err)
		}
	case <-time.After(100 * time.Millisecond):
		t.Fatal("queued call still blocked 100 ms after Close")
	}
	srv.Close()
	if _, err := cl.Answer(context.Background(), keys); !errors.Is(err, ErrClosed) {
		t.Fatalf("call after Close: %v, want an error wrapping ErrClosed", err)
	}
}

// TestNodeClientCloseEndsCall: Close ends a node client's range answer in
// flight on a node that never answers, well before the RPC timeout.
func TestNodeClientCloseEndsCall(t *testing.T) {
	tab := buildTable(t, 64, 2, 45)
	rep := newReplica(t, tab, engine.Config{Party: 0})
	started := make(chan struct{})
	_, addr := startNode(t, &blockingBackend{Replica: rep, started: started}, ServerConfig{})
	cl, err := Dial(addr, Options{PRG: rep.PRGName(), Party: 0})
	if err != nil {
		t.Fatal(err)
	}
	keys, _ := genKeys(t, dpf.NewAESPRG(), tab.Bits(), []uint64{3}, 46)
	endsWithin(t, started, func() { cl.Close() }, func() error {
		_, err := answerRange(context.Background(), cl, keys, 0, 64)
		return err
	})
}

// TestClusterCloseEndsHungMember: Cluster.Close ends an Answer waiting on a
// hung node, whether the pass chains its sends (every member a node
// client) or runs a goroutine per shard (a mixed cluster).
func TestClusterCloseEndsHungMember(t *testing.T) {
	t.Run("chained", func(t *testing.T) {
		tab := buildTable(t, 128, 4, 47)
		started := make(chan struct{})
		c, _ := twoNodeCluster(t, tab, func(i int, rep *engine.Replica) engine.Member {
			if i == 0 {
				return rep
			}
			return &blockingBackend{Replica: rep, started: started}
		}, func(cl *Client) engine.Member { return cl })
		keys, _ := genKeys(t, dpf.NewAESPRG(), tab.Bits(), []uint64{9}, 48)
		endsWithin(t, started, func() { c.Close() }, func() error { _, err := c.Answer(context.Background(), keys); return err })
	})
	t.Run("goroutine", func(t *testing.T) {
		started := make(chan struct{})
		c, _, _ := mixedCluster(t, 1, func(rep *engine.Replica) engine.Member {
			return &blockingBackend{Replica: rep, started: started}
		})
		keys, _ := genKeysForCluster(t, c)
		endsWithin(t, started, func() { c.Close() }, func() error { _, err := c.Answer(context.Background(), keys); return err })
	})
}

// TestClientCloseEndsConcurrentCalls: calls racing Close on a node client,
// on connections it checks out and dials concurrently, each end within
// 100 ms of it, the last call of every caller with an error wrapping
// ErrClosed.
func TestClientCloseEndsConcurrentCalls(t *testing.T) {
	tab := buildTable(t, 64, 2, 49)
	rep := newReplica(t, tab, engine.Config{Party: 0})
	_, addr := startNode(t, rep, ServerConfig{})
	cl, err := Dial(addr, Options{PRG: rep.PRGName(), Party: 0})
	if err != nil {
		t.Fatal(err)
	}
	keys, _ := genKeys(t, dpf.NewAESPRG(), tab.Bits(), []uint64{3}, 50)
	const callers = 8
	last := make(chan error, callers)
	for range callers {
		go func() {
			for {
				if _, err := answerRange(context.Background(), cl, keys, 0, 64); err != nil {
					last <- err
					return
				}
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	cl.Close()
	deadline := time.After(100 * time.Millisecond)
	for range callers {
		select {
		case err := <-last:
			if !errors.Is(err, ErrClosed) {
				t.Errorf("caller ended with %v, want an error wrapping ErrClosed", err)
			}
		case <-deadline:
			t.Fatal("a caller still running 100 ms after Close")
		}
	}
}

// TestClusterChainSkipsCappedClient: a capped client serving two shards
// does not chain, since the second shard's call would wait for the one
// connection the first shard's send still holds; the pass runs a goroutine
// per shard and answers.
func TestClusterChainSkipsCappedClient(t *testing.T) {
	tab := buildTable(t, 128, 4, 51)
	rep := newReplica(t, tab, engine.Config{Party: 0})
	_, addr := startNode(t, rep, ServerConfig{})
	cl, err := DialClient(addr, &Options{PRG: rep.PRGName(), Party: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	c, err := engine.NewCluster(engine.ClusterShard{Backend: cl}, engine.ClusterShard{Backend: cl})
	if err != nil {
		t.Fatal(err)
	}
	keys, _ := genKeys(t, dpf.NewAESPRG(), tab.Bits(), []uint64{5, 127}, 52)
	want, err := rep.Answer(context.Background(), keys)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	got, err := c.Answer(ctx, keys)
	if err != nil {
		t.Fatal(err)
	}
	sameAnswers(t, got, want)
}
