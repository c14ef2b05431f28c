package engine

import (
	"context"
	"errors"
	"slices"
	"sync"
	"testing"
)

// callLog records member calls in the order they happen.
type callLog struct {
	mu    sync.Mutex
	calls []string
}

func (l *callLog) add(s string) {
	l.mu.Lock()
	l.calls = append(l.calls, s)
	l.mu.Unlock()
}

func (l *callLog) get() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return slices.Clone(l.calls)
}

// pipe is a Member that declares itself pipelined, as a remote client
// does: it logs each call, calls its context's send hook where a client
// would have written its request, and only then computes its partial. One
// with fail set fails before it sends.
type pipe struct {
	*Replica
	name string
	log  *callLog
	fail error
}

func (p *pipe) Pipelined() bool { return true }

func (p *pipe) AnswerRangeEpoch(ctx context.Context, keys [][]byte, lo, hi int) ([][]uint32, uint64, bool, error) {
	p.log.add("send " + p.name)
	if p.fail != nil {
		return nil, 0, false, p.fail
	}
	if h, ok := ctx.(interface{ RequestSent() }); ok {
		h.RequestSent()
	}
	part, epoch, ok, err := p.Replica.AnswerRangeEpoch(ctx, keys, lo, hi)
	p.log.add("reply " + p.name)
	return part, epoch, ok, err
}

func pipeOver(rep *Replica, name string, log *callLog) *pipe {
	return &pipe{Replica: rep, name: name, log: log}
}

// TestClusterChainsPipelinedShards: in a cluster of Pipeliners every
// shard's request is sent from the previous shard's send hook, so the
// requests leave back to back and the replies are taken last shard first,
// and the merged answer is still the replica's.
func TestClusterChainsPipelinedShards(t *testing.T) {
	const rows, lanes = 96, 3
	tab := buildTable(t, rows, lanes, 31)
	k0s, _ := genKeys(t, tab, []uint64{0, 40, 95}, 32)
	ref, err := NewReplica(tab, Config{Party: 0})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Answer(context.Background(), k0s)
	if err != nil {
		t.Fatal(err)
	}
	log := &callLog{}
	shards := make([]ClusterShard, 3)
	for i, name := range []string{"a", "b", "c"} {
		shards[i] = ClusterShard{Backend: pipeOver(ref, name, log)}
	}
	c, err := NewCluster(shards...)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Answer(context.Background(), k0s)
	if err != nil {
		t.Fatal(err)
	}
	assertSameShares(t, got, want)
	if calls, want := log.get(), []string{"send a", "send b", "send c", "reply c", "reply b", "reply a"}; !slices.Equal(calls, want) {
		t.Fatalf("member calls %q, want %q", calls, want)
	}
}

// TestClusterChainFailBeforeSend: a shard that fails before it sends starts
// no successor; the pass still fails with that shard's error, and the
// shards after it are never asked.
func TestClusterChainFailBeforeSend(t *testing.T) {
	const rows, lanes = 96, 3
	tab := buildTable(t, rows, lanes, 33)
	k0s, _ := genKeys(t, tab, []uint64{5}, 34)
	ref, err := NewReplica(tab, Config{Party: 0})
	if err != nil {
		t.Fatal(err)
	}
	log := &callLog{}
	refused := errors.New("connection refused")
	b := pipeOver(ref, "b", log)
	b.fail = refused
	c, err := NewCluster(ClusterShard{Backend: pipeOver(ref, "a", log)}, ClusterShard{Backend: b},
		ClusterShard{Backend: pipeOver(ref, "c", log)})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Answer(context.Background(), k0s)
	var se *ShardError
	if !errors.As(err, &se) || se.Shard != 1 || !errors.Is(err, refused) {
		t.Fatalf("pass error %v, want shard 1's refusal", err)
	}
	if calls := log.get(); slices.Contains(calls, "send c") {
		t.Fatalf("member calls %q: the shard after a failed send was asked", calls)
	}
}

// TestClusterChainFailover: when a group's first member fails before it
// sends, the member the group fails over to starts the next shard from its
// own send.
func TestClusterChainFailover(t *testing.T) {
	const rows, lanes = 96, 3
	tab := buildTable(t, rows, lanes, 35)
	k0s, _ := genKeys(t, tab, []uint64{1, 90}, 36)
	ref, err := NewReplica(tab, Config{Party: 0})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Answer(context.Background(), k0s)
	if err != nil {
		t.Fatal(err)
	}
	log := &callLog{}
	down := pipeOver(ref, "a0", log)
	down.fail = errors.New("connection refused")
	c, err := NewCluster(ClusterShard{Members: []Member{down, pipeOver(ref, "a1", log)}},
		ClusterShard{Backend: pipeOver(ref, "b", log)})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Answer(context.Background(), k0s)
	if err != nil {
		t.Fatal(err)
	}
	assertSameShares(t, got, want)
	if calls, want := log.get(), []string{"send a0", "send a1", "send b", "reply b", "reply a1"}; !slices.Equal(calls, want) {
		t.Fatalf("member calls %q, want %q", calls, want)
	}
}
