// Replica-group fault and heal coverage over real TCP: load-balanced
// N-member shards must survive member death mid-batch bit-identically,
// a stale member must be quarantined and then healed to the current
// epoch over the snapshot RPCs while update churn keeps moving the
// cluster, and the client's redial backoff must fail fast instead of
// hammering a dead node.
package shardnet

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"gpudpf/internal/backoff"
	"gpudpf/internal/engine"
	"gpudpf/internal/strategy"
)

// memberTrio starts three nodes over the same shard rows (the first
// wrapped by wrap) and dials all three.
func memberTrio(t *testing.T, tab *strategy.Table, cfg engine.Config, lo, hi int, wrap func(*engine.Replica) engine.Member) (srv0 *Server, cls [3]*Client, addrs [3]string) {
	t.Helper()
	var opts Options
	for j := 0; j < 3; j++ {
		rep := newReplica(t, shardTable(t, tab, lo, hi), cfg)
		if j == 0 {
			opts = Options{PRG: rep.PRGName(), Party: rep.Party()}
		}
		be := engine.Member(rep)
		if j == 0 {
			be = wrap(rep)
		}
		srv, addr := startNode(t, be, ServerConfig{RowLo: lo, RowHi: hi})
		if j == 0 {
			srv0 = srv
		}
		cl, err := Dial(addr, opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		cls[j], addrs[j] = cl, addr
	}
	return srv0, cls, addrs
}

// inRotation reports whether cluster sends answers to the group member rep
// backs: four sequential batches round-robin over a group's healthy
// members, a tripped member is tried only after them, and none reaches a
// quarantined one.
func inRotation(t *testing.T, cluster *engine.Cluster, rep *engine.Replica) bool {
	t.Helper()
	keys, _ := genKeysForCluster(t, cluster)
	before := rep.Counters().PRFBlocks
	for i := 0; i < 4; i++ {
		if _, err := cluster.Answer(context.Background(), keys); err != nil {
			t.Fatalf("answering while checking rotation: %v", err)
		}
	}
	return rep.Counters().PRFBlocks != before
}

// leftOutOfUpdates reports whether cluster's next update, next, passes the
// group member rep backs by, as the handshake does a quarantined member.
// rep first replays missed, the updates it did not take, so it stands at
// its siblings' epoch: a member that was only tripped would then take part
// in next and advance with them.
func leftOutOfUpdates(t *testing.T, cluster *engine.Cluster, rep *engine.Replica, next []engine.RowWrite, missed ...[]engine.RowWrite) bool {
	t.Helper()
	ctx := context.Background()
	for _, w := range missed {
		if _, err := rep.UpdateBatch(ctx, w); err != nil {
			t.Fatalf("replaying a missed update: %v", err)
		}
	}
	level, err := rep.Epoch(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if e, err := cluster.Epoch(ctx); err != nil || e != level {
		t.Fatalf("replayed member at epoch %d, cluster at %d (%v)", level, e, err)
	}
	if _, err := cluster.UpdateBatch(ctx, next); err != nil {
		t.Fatalf("update failed despite a current member per shard: %v", err)
	}
	after, err := rep.Epoch(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return after == level
}

// TestClusterGroupKillMidBatchTCP is the replica-group acceptance test:
// a 4-shard mixed cluster where shard 2 is a THREE-member group over real
// TCP serves a batch while the member evaluating it is killed; the batch
// completes off a sibling bit-identically. Then a second member's client
// is closed — the group degraded to one live member keeps serving.
func TestClusterGroupKillMidBatchTCP(t *testing.T) {
	const rows, lanes, shards, remoteIdx = 256, 4, 4, 2
	tab := buildTable(t, rows, lanes, 33)
	cfg := engine.Config{Party: 0}
	started := make(chan struct{})
	var srv0 *Server
	var cls [3]*Client
	members := make([]engine.ClusterShard, shards)
	for i := 0; i < shards; i++ {
		if i != remoteIdx {
			members[i] = engine.ClusterShard{Backend: newReplica(t, tab, cfg)}
			continue
		}
		lo, hi := engine.ShardRange(rows, i, shards)
		var addrs [3]string
		srv0, cls, addrs = memberTrio(t, tab, cfg, lo, hi, func(be *engine.Replica) engine.Member {
			return &blockingBackend{Replica: be, started: started}
		})
		members[i] = engine.ClusterShard{
			Members:     []engine.Member{cls[0], cls[1], cls[2]},
			MemberNames: addrs[:],
		}
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
		t.Fatal("member node never started evaluating")
	}
	srv0.Close() // kill the evaluating member mid-batch

	var r res
	select {
	case r = <-resCh:
	case <-time.After(10 * time.Second):
		t.Fatal("cluster answer did not complete after member death")
	}
	if r.err != nil {
		t.Fatalf("group failover answer failed: %v", r.err)
	}
	ref := newReplica(t, tab, cfg)
	want, err := ref.Answer(context.Background(), keys)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameShares(r.answers, want); err != nil {
		t.Fatalf("group failover answers diverge from single replica: %v", err)
	}

	// Degrade to one live member: the group still serves, bit-identically.
	cls[1].Close()
	got, err := cluster.Answer(context.Background(), keys)
	if err != nil {
		t.Fatalf("degraded group failed: %v", err)
	}
	if err := sameShares(got, want); err != nil {
		t.Fatalf("degraded group answers diverge: %v", err)
	}
}

// TestSnapshotRPCs drives the protocol v3 snapshot pair directly against
// a node holding a sub-range: meta advertises the held range, chunks are
// resumable at arbitrary word offsets and reassemble to the node's exact
// rows, reads past the end terminate the stream, and a chunk requested at
// a superseded epoch fails loudly instead of serving torn bytes.
func TestSnapshotRPCs(t *testing.T) {
	const rows, lanes = 128, 4
	const lo, hi = 64, 128
	tab := buildTable(t, rows, lanes, 34)
	cfg := engine.Config{Party: 0}
	rep := newReplica(t, shardTable(t, tab, lo, hi), cfg)
	_, addr := startNode(t, rep, ServerConfig{RowLo: lo, RowHi: hi})
	cl, err := Dial(addr, Options{PRG: rep.PRGName(), Party: rep.Party()})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()

	if err := cl.Ping(ctx); err != nil {
		t.Fatalf("ping failed: %v", err)
	}
	snapEpoch, effEpoch, gotLo, gotHi, err := cl.SnapshotMeta(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if gotLo != lo || gotHi != hi {
		t.Fatalf("meta advertises rows [%d,%d), node holds [%d,%d)", gotLo, gotHi, lo, hi)
	}
	if snapEpoch != 0 || effEpoch != 0 {
		t.Fatalf("fresh node at snapshot epoch %d / effective %d, want 0/0", snapEpoch, effEpoch)
	}

	// Pull the held range in deliberately awkward chunk sizes and check
	// every word against the source table.
	words := (hi - lo) * lanes
	buf := make([]uint32, 0, words)
	for len(buf) < words {
		chunk, err := cl.SnapshotChunk(ctx, snapEpoch, len(buf), 37)
		if err != nil {
			t.Fatalf("chunk at offset %d: %v", len(buf), err)
		}
		if len(chunk) == 0 {
			t.Fatalf("stream ended at %d of %d words", len(buf), words)
		}
		buf = append(buf, chunk...)
	}
	for w := range buf {
		if want := tab.Data[lo*lanes+w]; buf[w] != want {
			t.Fatalf("word %d (row %d): pulled %#x, table holds %#x", w, lo+w/lanes, buf[w], want)
		}
	}

	// Resume from an arbitrary offset: same bytes.
	mid := words / 3
	chunk, err := cl.SnapshotChunk(ctx, snapEpoch, mid, words)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunk) != words-mid {
		t.Fatalf("resume at %d returned %d words, want %d", mid, len(chunk), words-mid)
	}
	for i, v := range chunk {
		if v != buf[mid+i] {
			t.Fatalf("resumed word %d diverges", mid+i)
		}
	}

	// Past the end: empty terminator, not an error.
	if tail, err := cl.SnapshotChunk(ctx, snapEpoch, words, 64); err != nil || len(tail) != 0 {
		t.Fatalf("past-end chunk: %d words, %v", len(tail), err)
	}

	// Move the node's epoch; the old-epoch transfer must fail loudly and a
	// fresh meta must advertise the new epoch.
	if _, err := rep.UpdateBatch(ctx, []engine.RowWrite{{Row: lo + 1, Vals: []uint32{1, 2, 3, 4}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.SnapshotChunk(ctx, snapEpoch, 0, 64); err == nil || !strings.Contains(err.Error(), "restart from SnapshotMeta") {
		t.Fatalf("superseded-epoch chunk: %v", err)
	}
	if se, _, _, _, err := cl.SnapshotMeta(ctx); err != nil || se != 1 {
		t.Fatalf("post-update meta: epoch %d, %v (want 1)", se, err)
	}
}

// TestClusterHealStaleMemberTCP is the heal acceptance test: a two-member
// TCP replica group where one member missed an epoch is quarantined by
// the next update handshake, then healed back to the CURRENT epoch over
// the snapshot RPCs while background refresh churn keeps advancing the
// cluster — and afterwards the healed member serves the updated rows
// bit-identically to its donor.
func TestClusterHealStaleMemberTCP(t *testing.T) {
	const rows, lanes, shards = 128, 2, 2
	tab := buildTable(t, rows, lanes, 35)
	cfg := engine.Config{Party: 0}
	ctx := context.Background()

	shard0 := newReplica(t, tab, cfg)
	lo, hi := engine.ShardRange(rows, 1, shards)
	m0rep := newReplica(t, shardTable(t, tab, lo, hi), cfg)
	m1rep := newReplica(t, shardTable(t, tab, lo, hi), cfg)
	_, m0addr := startNode(t, m0rep, ServerConfig{RowLo: lo, RowHi: hi})
	_, m1addr := startNode(t, m1rep, ServerConfig{RowLo: lo, RowHi: hi})
	opts := Options{PRG: shard0.PRGName(), Party: shard0.Party()}
	m0cl, err := Dial(m0addr, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer m0cl.Close()
	m1cl, err := Dial(m1addr, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer m1cl.Close()
	cluster, err := engine.NewCluster(
		engine.ClusterShard{Backend: shard0, Name: "local"},
		engine.ClusterShard{Members: []engine.Member{m0cl, m1cl}, MemberNames: []string{m0addr, m1addr}},
	)
	if err != nil {
		t.Fatal(err)
	}
	ref := newReplica(t, buildTable(t, rows, lanes, 35), cfg)

	// Member 1 misses an epoch: its siblings move without it.
	w1 := []engine.RowWrite{{Row: uint64(lo), Vals: []uint32{7, 7}}}
	for _, r := range []*engine.Replica{shard0, m0rep} {
		if _, err := r.UpdateBatch(ctx, w1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ref.UpdateBatch(ctx, w1); err != nil {
		t.Fatal(err)
	}

	// The next cluster update quarantines the laggard and still lands.
	w2 := []engine.RowWrite{{Row: 3, Vals: []uint32{8, 8}}}
	if _, err := cluster.UpdateBatch(ctx, w2); err != nil {
		t.Fatalf("update failed despite a current member per shard: %v", err)
	}
	if _, err := ref.UpdateBatch(ctx, w2); err != nil {
		t.Fatal(err)
	}
	if inRotation(t, cluster, m1rep) {
		t.Fatal("stale member not quarantined: it still takes answers")
	}
	w3 := []engine.RowWrite{{Row: uint64(lo + 1), Vals: []uint32{9, 9}}}
	if !leftOutOfUpdates(t, cluster, m1rep, w3, w1, w2) {
		t.Fatal("stale member not quarantined: it took part in the next update")
	}
	if _, err := ref.UpdateBatch(ctx, w3); err != nil {
		t.Fatal(err)
	}

	// Background churn: refresh batches keep advancing the cluster (and
	// the reference replica, in lockstep) while the heal is in flight.
	var (
		churnWG   sync.WaitGroup
		stopChurn = make(chan struct{})
	)
	churnWG.Add(1)
	go func() {
		defer churnWG.Done()
		for i := uint32(0); ; i++ {
			select {
			case <-stopChurn:
				return
			case <-time.After(2 * time.Millisecond):
			}
			w := []engine.RowWrite{{Row: uint64(20 + int(i)%8), Vals: []uint32{i, i + 1}}}
			if _, err := ref.UpdateBatch(ctx, w); err != nil {
				t.Errorf("ref churn: %v", err)
				return
			}
			if _, err := cluster.UpdateBatch(ctx, w); err != nil {
				t.Errorf("cluster churn: %v", err)
				return
			}
		}
	}()

	if err := cluster.Heal(ctx, 1, 1); err != nil {
		close(stopChurn)
		churnWG.Wait()
		t.Fatalf("heal under churn failed: %v", err)
	}
	close(stopChurn)
	churnWG.Wait()

	if !inRotation(t, cluster, m1rep) {
		t.Fatal("healed member still out of rotation")
	}
	e0, err := m0cl.Epoch(ctx)
	if err != nil {
		t.Fatal(err)
	}
	e1, err := m1cl.Epoch(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if e0 != e1 {
		t.Fatalf("healed member at epoch %d, donor at %d", e1, e0)
	}

	// The healed member serves the donor's exact rows...
	keys, _ := genKeysForCluster(t, cluster)
	donorPart, err := answerRange(ctx, m0cl, keys, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	healedPart, err := answerRange(ctx, m1cl, keys, lo, hi)
	if err != nil {
		t.Fatalf("healed member not serving: %v", err)
	}
	if err := sameShares(healedPart, donorPart); err != nil {
		t.Fatalf("healed member's partials diverge from its donor: %v", err)
	}
	// ...and the cluster as a whole stays bit-identical to the reference.
	want, err := ref.Answer(ctx, keys)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cluster.Answer(ctx, keys)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameShares(got, want); err != nil {
		t.Fatalf("post-heal cluster diverges from reference: %v", err)
	}

	// And the healed member rides the next handshake like everyone else.
	if _, err := cluster.UpdateBatch(ctx, []engine.RowWrite{{Row: 5, Vals: []uint32{1, 2}}}); err != nil {
		t.Fatalf("post-heal update failed: %v", err)
	}
	if !inRotation(t, cluster, m1rep) {
		t.Fatal("healed member re-quarantined by the next update")
	}
}

// TestClusterHealMixedWidthTCP: a replica group may mix a whole-table
// in-process replica with a shard node that holds only the shard's slice.
// Heal moves the shard's ASSIGNED rows — which both hold — in either
// direction: whole-table donor to slice node (shipping the donor's whole
// held range, as Heal once did, is refused by the node's held-range check)
// and slice node back to the whole-table replica.
func TestClusterHealMixedWidthTCP(t *testing.T) {
	const rows, lanes, shards = 128, 2, 2
	tab := buildTable(t, rows, lanes, 37)
	cfg := engine.Config{Party: 0}
	ctx := context.Background()

	shard0 := newReplica(t, tab, cfg)
	wide := newReplica(t, buildTable(t, rows, lanes, 37), cfg)
	lo, hi := engine.ShardRange(rows, 1, shards)
	narrow := newReplica(t, shardTable(t, tab, lo, hi), cfg)
	_, addr := startNode(t, narrow, ServerConfig{RowLo: lo, RowHi: hi})
	cl, err := Dial(addr, Options{PRG: wide.PRGName(), Party: wide.Party()})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cluster, err := engine.NewCluster(
		engine.ClusterShard{Backend: shard0, Name: "local"},
		engine.ClusterShard{Members: []engine.Member{wide, cl}, MemberNames: []string{"wide", addr}},
	)
	if err != nil {
		t.Fatal(err)
	}
	keys, _ := genKeysForCluster(t, cluster)
	members := []*engine.Replica{wide, narrow}
	for stale := 1; stale >= 0; stale-- {
		// The stale member misses an epoch its sibling and shard 0 take; the
		// next cluster update quarantines it.
		w := []engine.RowWrite{{Row: uint64(lo + stale), Vals: []uint32{uint32(7 + stale), 7}}}
		for _, r := range []*engine.Replica{shard0, members[1-stale]} {
			if _, err := r.UpdateBatch(ctx, w); err != nil {
				t.Fatal(err)
			}
		}
		quarantining := []engine.RowWrite{{Row: uint64(hi - 1 - stale), Vals: []uint32{8, 8}}}
		if _, err := cluster.UpdateBatch(ctx, quarantining); err != nil {
			t.Fatalf("update failed despite a current member per shard: %v", err)
		}
		if inRotation(t, cluster, members[stale]) {
			t.Fatalf("stale member %d not quarantined: it still takes answers", stale)
		}
		next := []engine.RowWrite{{Row: uint64(lo + 2 + stale), Vals: []uint32{9, 9}}}
		if !leftOutOfUpdates(t, cluster, members[stale], next, w, quarantining) {
			t.Fatalf("stale member %d not quarantined: it took part in the next update", stale)
		}
		if err := cluster.Heal(ctx, 1, stale); err != nil {
			t.Fatalf("healing member %d from its other-width sibling: %v", stale, err)
		}
		if !inRotation(t, cluster, members[stale]) {
			t.Fatalf("healed member %d still out of rotation", stale)
		}
		donorPart, err := answerRange(ctx, members[1-stale], keys, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		healedPart, err := answerRange(ctx, members[stale], keys, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameShares(healedPart, donorPart); err != nil {
			t.Fatalf("healed member %d's partials diverge from its donor: %v", stale, err)
		}
	}
	if _, err := cluster.Epoch(ctx); err != nil {
		t.Fatalf("members disagree on the epoch after both heals: %v", err)
	}
}

// TestClientRedialBackoff: after a dial failure the client opens a
// backoff window during which RPCs needing a fresh connection fail fast
// — naming the wait — instead of paying a TCP connect per attempt; once
// the window expires a real dial is attempted again.
func TestClientRedialBackoff(t *testing.T) {
	tab := buildTable(t, 64, 2, 36)
	rep := newReplica(t, tab, engine.Config{Party: 0})
	srv, addr := startNode(t, rep, ServerConfig{})
	cl, err := Dial(addr, Options{PRG: rep.PRGName(), Party: rep.Party()})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.bo = backoff.New(backoff.Policy{Base: 300 * time.Millisecond, Max: time.Second, Factor: 2, Jitter: 0}, 0)
	ctx := context.Background()
	if err := cl.Ping(ctx); err != nil {
		t.Fatal(err)
	}
	srv.Close()

	// The pooled connection dies first; then one real dial fails and opens
	// the window.
	var dialErr error
	for i := 0; i < 2 && dialErr == nil; i++ {
		dialErr = cl.Ping(ctx)
	}
	if dialErr == nil {
		t.Fatal("ping succeeded against a closed node")
	}
	for strings.Contains(dialErr.Error(), "receive") || strings.Contains(dialErr.Error(), "send") {
		// Still draining pooled connections; the next attempt dials.
		dialErr = cl.Ping(ctx)
	}
	if strings.Contains(dialErr.Error(), "backed off") {
		t.Fatalf("first dial failure already reports backoff: %v", dialErr)
	}

	// Inside the window: fail fast, naming the remaining wait.
	start := time.Now()
	err = cl.Ping(ctx)
	if err == nil || !strings.Contains(err.Error(), "redial backed off") {
		t.Fatalf("in-window ping error %v does not name the backoff", err)
	}
	if !errors.Is(err, errors.Unwrap(err)) || errors.Unwrap(err) == nil {
		t.Fatalf("backed-off error %v does not wrap the dial failure", err)
	}
	if elapsed := time.Since(start); elapsed > 150*time.Millisecond {
		t.Fatalf("backed-off ping took %v, want a fast failure", elapsed)
	}

	// Past the window: a real dial is attempted again (and still fails —
	// the node is gone — but without the backoff marker).
	time.Sleep(350 * time.Millisecond)
	err = cl.Ping(ctx)
	if err == nil {
		t.Fatal("ping succeeded against a closed node")
	}
	if strings.Contains(err.Error(), "redial backed off") {
		t.Fatalf("post-window ping still backed off: %v", err)
	}
}
