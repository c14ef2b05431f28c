// Fault injection for the distributed replica: a cluster must fail loudly
// and promptly — naming the guilty shard — when a node dies mid-batch,
// stalls past the caller's deadline, or was started with a mismatched
// configuration. These are the failure modes a two-cloud deployment
// actually sees.
package shardnet

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"gpudpf/internal/dpf"
	"gpudpf/internal/engine"
	"gpudpf/internal/strategy"
)

// blockingBackend parks every range answer on its context — a node that
// accepted a request and then hung (or was killed) mid-evaluation.
type blockingBackend struct {
	*engine.Replica
	started chan struct{}
	once    sync.Once
}

func (b *blockingBackend) AnswerRangeEpoch(ctx context.Context, keys [][]byte, lo, hi int) ([][]uint32, uint64, bool, error) {
	b.once.Do(func() { close(b.started) })
	<-ctx.Done()
	return nil, 0, false, ctx.Err()
}

// slowBackend delays every range answer, honoring cancellation.
type slowBackend struct {
	*engine.Replica
	delay time.Duration
}

func (b *slowBackend) AnswerRangeEpoch(ctx context.Context, keys [][]byte, lo, hi int) ([][]uint32, uint64, bool, error) {
	select {
	case <-time.After(b.delay):
		return b.Replica.AnswerRangeEpoch(ctx, keys, lo, hi)
	case <-ctx.Done():
		return nil, 0, false, ctx.Err()
	}
}

// update1 installs one row through UpdateBatch, the one update path.
func update1(be engine.Backend, row uint64, vals []uint32) error {
	_, err := be.UpdateBatch(context.Background(), []engine.RowWrite{{Row: row, Vals: vals}})
	return err
}

// answerRange is AnswerRangeEpoch for tests that only want the partials.
func answerRange(ctx context.Context, m engine.Member, keys [][]byte, lo, hi int) ([][]uint32, error) {
	part, _, _, err := m.AnswerRangeEpoch(ctx, keys, lo, hi)
	return part, err
}

// genKeysForCluster generates a small party-0 aes128 batch for the
// cluster's row domain at the default early-termination depth.
func genKeysForCluster(t testing.TB, c *engine.Cluster) (k0s, k1s [][]byte) {
	t.Helper()
	rows, _ := c.Shape()
	return genKeys(t, dpf.NewAESPRG(), dpf.DomainBits(rows), []uint64{1, uint64(rows) - 1}, 11)
}

// mixedCluster builds a 4-shard party-0 cluster over tab where shard
// `remoteIdx` is served over TCP by remoteBE and the rest are in-process
// replicas. It returns the cluster and the remote node (for killing).
func mixedCluster(t *testing.T, remoteIdx int, wrap func(*engine.Replica) engine.Member) (*engine.Cluster, *Server, string) {
	t.Helper()
	const rows, lanes, shards = 256, 4, 4
	tab := buildTable(t, rows, lanes, 7)
	members := make([]engine.ClusterShard, shards)
	var srv *Server
	var addr string
	for i := 0; i < shards; i++ {
		rep := newReplica(t, tab, engine.Config{Party: 0})
		if i != remoteIdx {
			members[i] = engine.ClusterShard{Backend: rep}
			continue
		}
		srv, addr = startNode(t, wrap(rep), ServerConfig{})
		cl, err := Dial(addr, Options{PRG: rep.PRGName(), Party: rep.Party()})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		members[i] = engine.ClusterShard{Backend: cl, Name: addr}
	}
	cluster, err := engine.NewCluster(members...)
	if err != nil {
		t.Fatal(err)
	}
	return cluster, srv, addr
}

// TestClusterShardKillMidBatch: killing a shard node while it evaluates a
// batch fails the whole answer with a *engine.ShardError naming exactly
// that shard — never a silent short sum.
func TestClusterShardKillMidBatch(t *testing.T) {
	const remoteIdx = 2
	started := make(chan struct{})
	cluster, srv, addr := mixedCluster(t, remoteIdx, func(be *engine.Replica) engine.Member {
		return &blockingBackend{Replica: be, started: started}
	})
	kb, _ := genKeysForCluster(t, cluster)
	errCh := make(chan error, 1)
	go func() {
		_, err := cluster.Answer(context.Background(), kb)
		errCh <- err
	}()
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("shard node never started evaluating")
	}
	srv.Close() // kill the node mid-batch

	var err error
	select {
	case err = <-errCh:
	case <-time.After(10 * time.Second):
		t.Fatal("cluster answer did not fail after shard death")
	}
	if err == nil {
		t.Fatal("cluster answered despite a dead shard")
	}
	var se *engine.ShardError
	if !errors.As(err, &se) {
		t.Fatalf("error %v is not a ShardError", err)
	}
	if se.Shard != remoteIdx {
		t.Fatalf("ShardError names shard %d, the dead node was shard %d", se.Shard, remoteIdx)
	}
	if se.Name != addr || !strings.Contains(err.Error(), addr) {
		t.Fatalf("ShardError %q does not name the dead node %s", err, addr)
	}
}

// TestClusterSlowShardDeadline: a shard that stalls must cost the caller
// its context deadline, not a hang — the error carries DeadlineExceeded
// and names the slow shard.
func TestClusterSlowShardDeadline(t *testing.T) {
	const remoteIdx = 1
	cluster, _, addr := mixedCluster(t, remoteIdx, func(be *engine.Replica) engine.Member {
		return &slowBackend{Replica: be, delay: 30 * time.Second}
	})
	kb, _ := genKeysForCluster(t, cluster)
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := cluster.Answer(ctx, kb)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("cluster answered despite a stalled shard")
	}
	if elapsed > 10*time.Second {
		t.Fatalf("deadline took %v to propagate", elapsed)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v does not carry context.DeadlineExceeded", err)
	}
	var se *engine.ShardError
	if !errors.As(err, &se) {
		t.Fatalf("error %v is not a ShardError", err)
	}
	if se.Shard != remoteIdx || se.Name != addr {
		t.Fatalf("ShardError names shard %d (%s), the slow node was shard %d (%s)", se.Shard, se.Name, remoteIdx, addr)
	}
}

// TestRPCTimeoutBackstop: a caller with no deadline of its own — the
// shipped cluster front batches with context.Background() — must still be
// released by the client's RPC timeout (DefaultRPCTimeout, shortened
// here) when a node black-holes, instead of wedging forever.
func TestRPCTimeoutBackstop(t *testing.T) {
	tab := buildTable(t, 64, 2, 8)
	rep := newReplica(t, tab, engine.Config{Party: 0})
	_, addr := startNode(t, &slowBackend{Replica: rep, delay: 30 * time.Second}, ServerConfig{})
	c, err := Dial(addr, Options{PRG: rep.PRGName(), Party: rep.Party()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.timeout = 200 * time.Millisecond
	keys, _ := genKeys(t, dpf.NewAESPRG(), tab.Bits(), []uint64{3}, 12)
	start := time.Now()
	_, err = answerRange(context.Background(), c, keys, 0, 64)
	if err == nil {
		t.Fatal("deadline-less RPC against a stalled node returned")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v does not carry context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("RPC timeout took %v to fire", elapsed)
	}
}

// TestClusterConfigMismatch: a cluster must refuse to assemble when a node
// was started with a different PRF than its siblings — at Dial time when
// the client pins, at NewCluster time when it adopted — or holds rows other
// than those it is assigned. (A node of another depth is refused at dial:
// TestDialRefusesWelcomeDepth.)
func TestClusterConfigMismatch(t *testing.T) {
	tab := buildTable(t, 128, 2, 9)
	chachaNodeRep := newReplica(t, tab, engine.Config{Party: 0, PRG: foreignPRF{dpf.NewAESPRG()}})
	_, chachaAddr := startNode(t, chachaNodeRep, ServerConfig{})

	// Pinning client: rejected during the handshake, both PRFs named.
	if _, err := Dial(chachaAddr, Options{PRG: "aes128", Party: 0}); err == nil {
		t.Fatal("PRF-mismatched handshake accepted")
	} else if !strings.Contains(err.Error(), "aes128") || !strings.Contains(err.Error(), "chacha20") {
		t.Fatalf("handshake rejection %q does not name both PRFs", err)
	}

	// Adopting client: the mismatch surfaces when the cluster assembles,
	// with both shards and both PRFs named.
	adopting, err := Dial(chachaAddr, Options{Party: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer adopting.Close()
	aesRep := newReplica(t, tab, engine.Config{Party: 0})
	_, err = engine.NewCluster(
		engine.ClusterShard{Backend: aesRep, Name: "local-aes"},
		engine.ClusterShard{Backend: adopting, Name: chachaAddr},
	)
	if err == nil {
		t.Fatal("mixed-PRF cluster assembled")
	}
	for _, want := range []string{"aes128", "chacha20", chachaAddr} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("cluster rejection %q does not name %q", err, want)
		}
	}

	// A node assigned rows it does not hold is refused at assembly.
	partial := newReplica(t, shardTable(t, tab, 0, 64), engine.Config{Party: 0})
	_, partialAddr := startNode(t, partial, ServerConfig{RowLo: 0, RowHi: 64})
	partialClient, err := Dial(partialAddr, Options{PRG: "aes128", Party: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer partialClient.Close()
	_, err = engine.NewCluster(
		engine.ClusterShard{Backend: partialClient, Name: partialAddr}, // would be assigned [0,64)
		engine.ClusterShard{Backend: aesRep, Name: "local"},            // [64,128)
	)
	if err != nil {
		t.Fatalf("cluster with exactly-held ranges refused: %v", err)
	}
	// Swap the order: the partial node would now be assigned [64,128),
	// which it does not hold.
	_, err = engine.NewCluster(
		engine.ClusterShard{Backend: aesRep, Name: "local"},
		engine.ClusterShard{Backend: partialClient, Name: partialAddr},
	)
	if err == nil {
		t.Fatal("cluster assigned a shard rows it does not hold")
	}
	if !strings.Contains(err.Error(), "[64,128)") || !strings.Contains(err.Error(), "[0,64)") {
		t.Fatalf("held-range rejection %q does not name both ranges", err)
	}
}

// standbyPair starts a primary node (wrapped by wrap) and a standby node
// over the same shard rows and dials both.
func standbyPair(t *testing.T, tab *strategy.Table, cfg engine.Config, lo, hi int, wrap func(*engine.Replica) engine.Member) (prim *Server, primCl, sbCl *Client, primAddr string) {
	t.Helper()
	nodeTab := shardTable(t, tab, lo, hi)
	prim, primAddr = startNode(t, wrap(newReplica(t, nodeTab, cfg)), ServerConfig{RowLo: lo, RowHi: hi})
	sbTab := shardTable(t, tab, lo, hi)
	_, sbAddr := startNode(t, newReplica(t, sbTab, cfg), ServerConfig{RowLo: lo, RowHi: hi})
	rep := newReplica(t, tab, cfg) // only for its pinned config
	opts := Options{PRG: rep.PRGName(), Party: rep.Party()}
	var err error
	if primCl, err = Dial(primAddr, opts); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { primCl.Close() })
	if sbCl, err = Dial(sbAddr, opts); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sbCl.Close() })
	return prim, primCl, sbCl, primAddr
}

// TestClusterStandbyFailoverMidBatchTCP is the failover acceptance test:
// a 4-shard mixed cluster (in-process replicas + real TCP nodes) serves a
// batch while shard 2's primary node is killed mid-evaluation; the batch
// must complete off the standby node with answers bit-identical to a
// single-process replica.
func TestClusterStandbyFailoverMidBatchTCP(t *testing.T) {
	const rows, lanes, shards, remoteIdx = 256, 4, 4, 2
	tab := buildTable(t, rows, lanes, 27)
	cfg := engine.Config{Party: 0}
	started := make(chan struct{})
	var prim *Server
	members := make([]engine.ClusterShard, shards)
	for i := 0; i < shards; i++ {
		if i != remoteIdx {
			members[i] = engine.ClusterShard{Backend: newReplica(t, tab, cfg)}
			continue
		}
		lo, hi := engine.ShardRange(rows, i, shards)
		var primCl, sbCl *Client
		var addr string
		prim, primCl, sbCl, addr = standbyPair(t, tab, cfg, lo, hi, func(be *engine.Replica) engine.Member {
			return &blockingBackend{Replica: be, started: started}
		})
		members[i] = engine.ClusterShard{Backend: primCl, Name: addr, Members: []engine.Member{sbCl}, MemberNames: []string{addr + "-standby"}}
	}
	cluster, err := engine.NewCluster(members...)
	if err != nil {
		t.Fatal(err)
	}
	keys, _ := genKeysForCluster(t, cluster)

	type res struct {
		answers [][]uint32
		err     error
	}
	resCh := make(chan res, 1)
	go func() {
		a, err := cluster.Answer(context.Background(), keys)
		resCh <- res{a, err}
	}()
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("primary node never started evaluating")
	}
	prim.Close() // kill the primary mid-batch

	var r res
	select {
	case r = <-resCh:
	case <-time.After(10 * time.Second):
		t.Fatal("cluster answer did not complete after primary death")
	}
	if r.err != nil {
		t.Fatalf("failover answer failed: %v", r.err)
	}
	ref := newReplica(t, tab, cfg)
	want, err := ref.Answer(context.Background(), keys)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameShares(r.answers, want); err != nil {
		t.Fatalf("failover answers diverge from single replica: %v", err)
	}
}

// TestClusterUpdateBatchTCP: the epoch handshake drives one atomic update
// across a cluster whose members — including a standby — live behind real
// TCP nodes; answers afterwards (and after a failover) match a single
// updated replica.
func TestClusterUpdateBatchTCP(t *testing.T) {
	const rows, lanes, shards = 256, 4, 2
	tab := buildTable(t, rows, lanes, 28)
	cfg := engine.Config{Party: 0}
	// Shard 0 in-process; shard 1 remote with a remote standby.
	lo, hi := engine.ShardRange(rows, 1, shards)
	_, primCl, sbCl, addr := standbyPair(t, tab, cfg, lo, hi, func(be *engine.Replica) engine.Member { return be })
	cluster, err := engine.NewCluster(
		engine.ClusterShard{Backend: newReplica(t, tab, cfg)},
		engine.ClusterShard{Backend: primCl, Name: addr, Members: []engine.Member{sbCl}, MemberNames: []string{addr + "-standby"}},
	)
	if err != nil {
		t.Fatal(err)
	}
	writes := []engine.RowWrite{
		{Row: 10, Vals: []uint32{1, 2, 3, 4}},     // shard 0's range
		{Row: 200, Vals: []uint32{5, 6, 7, 8}},    // shard 1's range
		{Row: 255, Vals: []uint32{9, 10, 11, 12}}, // shard 1's range
	}
	epoch, err := cluster.UpdateBatch(context.Background(), writes)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 1 {
		t.Fatalf("cluster update landed at epoch %d, want 1", epoch)
	}
	refTab := buildTable(t, rows, lanes, 28)
	ref := newReplica(t, refTab, cfg)
	if _, err := ref.UpdateBatch(context.Background(), writes); err != nil {
		t.Fatal(err)
	}
	keys, _ := genKeys(t, dpf.NewAESPRG(), tab.Bits(), []uint64{10, 200, 255, 100}, 29)
	want, err := ref.Answer(context.Background(), keys)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cluster.Answer(context.Background(), keys)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameShares(got, want); err != nil {
		t.Fatalf("post-update cluster diverges: %v", err)
	}
	// The standby received the same epoch: kill the primary and the
	// failover must serve the UPDATED rows, bit-identically.
	primCl.Close() // client closed = every RPC to the primary fails fast
	got, err = cluster.Answer(context.Background(), keys)
	if err != nil {
		t.Fatalf("post-update failover failed: %v", err)
	}
	if err := sameShares(got, want); err != nil {
		t.Fatalf("failover after update serves stale rows: %v", err)
	}
}

// TestClusterUpdatePartialFailureTCP: a remote node that refuses the
// prepare (its backend cannot stage) leaves every member — local and
// remote — readable at the old epoch with the old content.
func TestClusterUpdatePartialFailureTCP(t *testing.T) {
	const rows, lanes, shards = 128, 2, 2
	tab := buildTable(t, rows, lanes, 30)
	cfg := engine.Config{Party: 0}
	lo, hi := engine.ShardRange(rows, 1, shards)
	nodeTab := shardTable(t, tab, lo, hi)
	failer := &prepareRefuser{Replica: newReplica(t, nodeTab, cfg)}
	_, addr := startNode(t, failer, ServerConfig{RowLo: lo, RowHi: hi})
	cl, err := Dial(addr, Options{PRG: "aes128", Party: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cluster, err := engine.NewCluster(
		engine.ClusterShard{Backend: newReplica(t, tab, cfg)},
		engine.ClusterShard{Backend: cl, Name: addr},
	)
	if err != nil {
		t.Fatal(err)
	}
	keys, _ := genKeys(t, dpf.NewAESPRG(), tab.Bits(), []uint64{5, 100}, 31)
	before, err := cluster.Answer(context.Background(), keys)
	if err != nil {
		t.Fatal(err)
	}
	_, err = cluster.UpdateBatch(context.Background(), []engine.RowWrite{
		{Row: 5, Vals: []uint32{1, 2}},
		{Row: 100, Vals: []uint32{3, 4}},
	})
	if err == nil {
		t.Fatal("update succeeded despite a refusing node")
	}
	var se *engine.ShardError
	if !errors.As(err, &se) || se.Name != addr {
		t.Fatalf("prepare refusal reported as %v, want ShardError naming %s", err, addr)
	}
	if !strings.Contains(err.Error(), "staging refused") {
		t.Fatalf("error %q does not carry the node's reason", err)
	}
	after, err := cluster.Answer(context.Background(), keys)
	if err != nil {
		t.Fatalf("cluster unreadable after aborted update: %v", err)
	}
	if err := sameShares(after, before); err != nil {
		t.Fatalf("aborted update leaked content: %v", err)
	}
	// Heal and retry: the cluster recovers at a fresh epoch.
	failer.heal()
	if _, err := cluster.UpdateBatch(context.Background(), []engine.RowWrite{{Row: 5, Vals: []uint32{1, 2}}}); err != nil {
		t.Fatalf("post-abort update failed: %v", err)
	}
}

// prepareRefuser fails PrepareUpdate until healed.
type prepareRefuser struct {
	*engine.Replica
	mu     sync.Mutex
	healed bool
}

func (p *prepareRefuser) heal() {
	p.mu.Lock()
	p.healed = true
	p.mu.Unlock()
}

func (p *prepareRefuser) PrepareUpdate(ctx context.Context, epoch uint64, writes []engine.RowWrite) error {
	p.mu.Lock()
	ok := p.healed
	p.mu.Unlock()
	if !ok {
		return errors.New("staging refused: no space")
	}
	return p.Replica.PrepareUpdate(ctx, epoch, writes)
}
