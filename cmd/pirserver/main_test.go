package main

import (
	"context"
	"crypto/rand"
	"testing"
	"time"

	"gpudpf/internal/dpf"
	"gpudpf/internal/engine"
	"gpudpf/internal/pir"
	"gpudpf/internal/shardnet"
)

// stalledMember is a shard replica that never answers a range request: it
// reports each one on asked and holds it until the node cancels it.
type stalledMember struct {
	*engine.Replica
	asked chan struct{}
}

func (m stalledMember) AnswerRangeEpoch(ctx context.Context, _ [][]byte, _, _ int) ([][]uint32, uint64, bool, error) {
	select {
	case m.asked <- struct{}{}:
	default:
	}
	<-ctx.Done()
	return nil, 0, false, ctx.Err()
}

// TestClusterFrontShutdownCutsStalledNode: a cluster front whose one node
// holds a batch forever still shuts down within drainTimeout (plus a
// second of slack), because it closes its node clients under the held
// batch once the drain deadline passes, instead of waiting out the node
// client's 30 s RPC timeout; the held request fails rather than hangs.
func TestClusterFrontShutdownCutsStalledNode(t *testing.T) {
	cfg := config{rows: 64, lanes: 4, seed: 1, batch: 4, maxDelay: time.Millisecond}
	tab, err := buildTable(cfg.rows, cfg.lanes, cfg.seed, 0, cfg.rows)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := pir.NewReplica(cfg.party, tab)
	if err != nil {
		t.Fatal(err)
	}
	asked := make(chan struct{}, 1)
	node, err := shardnet.NewServer(stalledMember{rep, asked}, shardnet.ServerConfig{RowLo: 0, RowHi: cfg.rows})
	if err != nil {
		t.Fatal(err)
	}
	nl := listen("127.0.0.1:0")
	go node.Serve(nl)
	defer node.Close()
	cl, err := shardnet.Dial(nl.Addr().String(), shardnet.Options{PRG: dpf.PRGName, Party: cfg.party, Rows: cfg.rows})
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := engine.NewCluster(engine.ClusterShard{Members: []engine.Member{cl}, MemberNames: []string{nl.Addr().String()}})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	l := listen("127.0.0.1:0")
	served := make(chan struct{})
	go func() {
		defer close(served)
		serveClients(cfg, l, cluster, clusterDesc{cluster, cfg.party}, "test front", "", func() { cluster.Close() })
	}()
	c, err := pir.NewClient(dpf.PRGName, cfg.rows, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	key, _, err := c.Query(5)
	if err != nil {
		t.Fatal(err)
	}
	r, err := pir.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	answered := make(chan error, 1)
	go func() {
		_, err := r.Answer([][]byte{key})
		answered <- err
	}()
	select {
	case <-asked:
	case <-time.After(10 * time.Second):
		t.Fatal("the request never reached the node")
	}

	start := time.Now()
	l.Close() // what SIGTERM does
	select {
	case <-served:
	case <-time.After(drainTimeout + time.Second):
		t.Fatalf("shutdown still running %v after the listener closed (drain deadline %v)", time.Since(start), drainTimeout)
	}
	if err := <-answered; err == nil {
		t.Error("the request held by the stalled node was answered")
	}
	t.Logf("shutdown took %v", time.Since(start))
}
