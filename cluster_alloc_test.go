package gpudpf_test

import (
	"math/rand"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"gpudpf/internal/engine"
	"gpudpf/internal/pir"
	"gpudpf/internal/serving"
	"gpudpf/internal/shardnet"
)

// clusterSingle builds the cluster-single stack in process: a rows × 64
// table on two shardnet nodes over loopback TCP, engine.NewCluster over
// them, and a batching front of one key per batch behind pir.Serve. It
// returns conns pir.Remotes dialed to the front and one-key requests for
// them.
func clusterSingle(tb testing.TB, conns int) ([]*pir.Remote, [][][]byte) {
	const rows, lanes, nodes = 1 << 10, 64, 2
	tab, err := pir.NewTable(rows, lanes)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(61))
	for i := range tab.Data {
		tab.Data[i] = rng.Uint32()
	}
	shards := make([]engine.ClusterShard, nodes)
	for i := range shards {
		rep, err := pir.NewReplica(0, tab)
		if err != nil {
			tb.Fatal(err)
		}
		lo, hi := engine.ShardRange(rows, i, nodes)
		node, err := shardnet.NewServer(rep, shardnet.ServerConfig{RowLo: lo, RowHi: hi})
		if err != nil {
			tb.Fatal(err)
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			tb.Fatal(err)
		}
		go node.Serve(l)
		tb.Cleanup(func() { node.Close() })
		cl, err := shardnet.Dial(l.Addr().String(), shardnet.Options{PRG: "aes128"})
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { cl.Close() })
		shards[i] = engine.ClusterShard{Backend: cl, Name: l.Addr().String()}
	}
	cluster, err := engine.NewCluster(shards...)
	if err != nil {
		tb.Fatal(err)
	}
	front, err := serving.NewFront(serving.FrontConfig{Policy: serving.Policy{MaxBatch: 1, MaxDelay: time.Second}}, cluster)
	if err != nil {
		tb.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	go pir.Serve(l, front)
	tb.Cleanup(func() { l.Close(); front.Close() })
	remotes := make([]*pir.Remote, conns)
	for i := range remotes {
		if remotes[i], err = pir.Dial(l.Addr().String()); err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { remotes[i].Close() })
	}
	cl, err := pir.NewClient("aes128", rows, rand.New(rand.NewSource(62)))
	if err != nil {
		tb.Fatal(err)
	}
	keys := make([][][]byte, 16)
	for i := range keys {
		k0, _, err := cl.Query(uint64(i * 61 % rows))
		if err != nil {
			tb.Fatal(err)
		}
		keys[i] = [][]byte{k0}
	}
	return remotes, keys
}

// TestClusterRequestAllocs pins what one one-key request costs the heap on
// the cluster-single stack: nothing per hand-off. Steady state a request
// allocates 12 times: each answer matrix where it is made (two nodes'
// partials, their decoded copies on the front, the client's answer), two
// apiece, and the batch the front forms with its key slice.
func TestClusterRequestAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a TCP stack")
	}
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates and defeats sync.Pool reuse")
	}
	remotes, keys := clusterSingle(t, 1)
	ask := func(n int) {
		for i := 0; i < n; i++ {
			answers, err := remotes[0].Answer(keys[i%len(keys)])
			if err != nil {
				t.Fatal(err)
			}
			if len(answers) != 1 || len(answers[0]) != 64 {
				t.Fatalf("got %d answers", len(answers))
			}
		}
	}
	ask(500) // pools, buffers and connections reach their steady state

	const requests = 2000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ask(requests)
	runtime.ReadMemStats(&after)
	perRequest := float64(after.Mallocs-before.Mallocs) / requests
	t.Logf("%.1f mallocs, %.0f bytes per one-key request", perRequest, float64(after.TotalAlloc-before.TotalAlloc)/requests)
	if perRequest > 20 {
		t.Fatalf("%.1f mallocs per one-key cluster request, want <= 20", perRequest)
	}
}

// BenchmarkClusterRequest drives the cluster-single stack from
// GOMAXPROCS connections at once, one one-key request at a time each.
func BenchmarkClusterRequest(b *testing.B) {
	remotes, keys := clusterSingle(b, runtime.GOMAXPROCS(0))
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		r := remotes[next.Add(1)-1]
		for i := 0; pb.Next(); i++ {
			if _, err := r.Answer(keys[i%len(keys)]); err != nil {
				b.Error(err)
				return
			}
		}
	})
}
