package engine

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"gpudpf/internal/strategy"
)

// flakyPrimary wraps a healthy replica and fails AnswerRangeEpoch while
// tripped — a primary that died mid-service but would answer correctly if
// it were alive (so accidental routing THROUGH it would not be caught by
// share comparison; only the failover path produces answers at all).
type flakyPrimary struct {
	*Replica
	mu      sync.Mutex
	tripped bool
	calls   int
}

func (f *flakyPrimary) trip() {
	f.mu.Lock()
	f.tripped = true
	f.mu.Unlock()
}

func (f *flakyPrimary) AnswerRangeEpoch(ctx context.Context, keys [][]byte, lo, hi int) ([][]uint32, uint64, bool, error) {
	f.mu.Lock()
	f.calls++
	dead := f.tripped
	f.mu.Unlock()
	if dead {
		return nil, 0, false, errors.New("primary: connection reset by peer")
	}
	return f.Replica.AnswerRangeEpoch(ctx, keys, lo, hi)
}

// prepareFailer injects a failure into the prepare phase.
type prepareFailer struct {
	*Replica
	fail error
}

func (p *prepareFailer) PrepareUpdate(ctx context.Context, epoch uint64, writes []RowWrite) error {
	if p.fail != nil {
		return p.fail
	}
	return p.Replica.PrepareUpdate(ctx, epoch, writes)
}

// commitFailer prepares fine but dies at commit — after its siblings may
// already have committed, the hardest partial failure the handshake must
// unwind.
type commitFailer struct {
	*Replica
	fail error
}

func (p *commitFailer) CommitUpdate(ctx context.Context, epoch uint64) error {
	if p.fail != nil {
		return p.fail
	}
	return p.Replica.CommitUpdate(ctx, epoch)
}

// stubTable carries the deterministic test table's shape and seed so
// clones share content but never backing arrays (each replica owns its
// store).
type stubTable struct {
	rows, lanes int
	seed        int64
}

func (s *stubTable) clone(t *testing.T) *strategy.Table {
	t.Helper()
	return buildTable(t, s.rows, s.lanes, s.seed)
}

// assertSameShares fails the test on the first diverging lane.
func assertSameShares(t *testing.T, got, want [][]uint32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d vs %d answers", len(got), len(want))
	}
	for q := range want {
		for l := range want[q] {
			if got[q][l] != want[q][l] {
				t.Fatalf("query %d lane %d: %#x != %#x", q, l, got[q][l], want[q][l])
			}
		}
	}
}

// standbyCluster builds a party-0 cluster of `shards` replicas over src's
// content where every shard also has a standby replica over the same
// content, returning the cluster and the wrapped primaries (for
// tripping).
func standbyCluster(t *testing.T, src *stubTable, shards int) (*Cluster, []*flakyPrimary) {
	t.Helper()
	members := make([]ClusterShard, shards)
	primaries := make([]*flakyPrimary, shards)
	for i := range members {
		rep, err := NewReplica(src.clone(t), Config{Party: 0})
		if err != nil {
			t.Fatal(err)
		}
		sb, err := NewReplica(src.clone(t), Config{Party: 0})
		if err != nil {
			t.Fatal(err)
		}
		primaries[i] = &flakyPrimary{Replica: rep}
		members[i] = ClusterShard{Backend: primaries[i], Members: []Member{sb}}
	}
	cluster, err := NewCluster(members...)
	if err != nil {
		t.Fatal(err)
	}
	return cluster, primaries
}

// TestClusterStandbyFailover: a primary killed mid-service is retried on
// its standby transparently — the batch succeeds and the answers are
// bit-identical to a single-process replica over the same table.
func TestClusterStandbyFailover(t *testing.T) {
	const rows, lanes = 256, 4
	src := &stubTable{rows: rows, lanes: lanes, seed: 51}
	cluster, primaries := standbyCluster(t, src, 4)
	ref, err := NewReplica(src.clone(t), Config{Party: 0})
	if err != nil {
		t.Fatal(err)
	}
	keys, _ := genKeys(t, src.clone(t), []uint64{0, 100, 200, 255}, 52)
	want, err := ref.Answer(context.Background(), keys)
	if err != nil {
		t.Fatal(err)
	}

	// Healthy pass first.
	got, err := cluster.Answer(context.Background(), keys)
	if err != nil {
		t.Fatal(err)
	}
	assertSameShares(t, got, want)

	// Kill shard 2's primary; the batch must still succeed, bit-identical.
	primaries[2].trip()
	got, err = cluster.Answer(context.Background(), keys)
	if err != nil {
		t.Fatalf("answer failed despite a standby: %v", err)
	}
	assertSameShares(t, got, want)

	// Kill every primary: the whole batch still serves off standbys.
	for _, p := range primaries {
		p.trip()
	}
	got, err = cluster.Answer(context.Background(), keys)
	if err != nil {
		t.Fatalf("answer failed with all primaries dead: %v", err)
	}
	assertSameShares(t, got, want)
}

// TestClusterStandbyBothFail: when primary AND standby fail the answer is
// a ShardError naming the shard, with both members' failures visible.
func TestClusterStandbyBothFail(t *testing.T) {
	cause := errors.New("disk on fire")
	members := []ClusterShard{
		{Backend: stub(t, 100, 2), Name: "alpha"},
		{Backend: stub(t, 100, 2).failing(cause), Name: "beta",
			Members: []Member{stub(t, 100, 2).failing(errors.New("standby cold"))}, MemberNames: []string{"beta-standby"}},
	}
	cluster, err := NewCluster(members...)
	if err != nil {
		t.Fatal(err)
	}
	_, err = cluster.Answer(context.Background(), [][]byte{{1}})
	var se *ShardError
	if !errors.As(err, &se) || se.Shard != 1 {
		t.Fatalf("double failure reported as %v, want ShardError for shard 1", err)
	}
	if !errors.Is(err, cause) {
		t.Fatalf("error chain %v lost the primary cause", err)
	}
	for _, want := range []string{"beta-standby", "standby cold"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
	}
}

// TestClusterStandbyValidation: standbys are held to the same construction
// checks as primaries — shape, pinned configuration, held range.
func TestClusterStandbyValidation(t *testing.T) {
	const rows, lanes = 128, 4
	tab := buildTable(t, rows, lanes, 53)
	rep, err := NewReplica(tab, Config{Party: 0})
	if err != nil {
		t.Fatal(err)
	}
	// Wrong shape.
	_, err = NewCluster(ClusterShard{Backend: rep, Members: []Member{stub(t, rows, lanes+1)}, MemberNames: []string{"fat"}})
	if err == nil || !strings.Contains(err.Error(), "fat") {
		t.Fatalf("wrong-shape standby accepted: %v", err)
	}
	// Wrong party.
	other, err := NewReplica(buildTable(t, rows, lanes, 53), Config{Party: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, err = NewCluster(ClusterShard{Backend: rep, Members: []Member{other}, MemberNames: []string{"wrong-party"}})
	if err == nil || !strings.Contains(err.Error(), "party") {
		t.Fatalf("wrong-party standby accepted: %v", err)
	}
	// Standby that does not hold the shard's range.
	holder := &heldStub{stubRange: stub(t, rows, lanes), lo: 0, hi: 32}
	_, err = NewCluster(
		ClusterShard{Backend: rep}, // would serve [0,64)
		ClusterShard{Backend: rep, Members: []Member{holder}, MemberNames: []string{"narrow"}}, // [64,128) but holds [0,32)
	)
	if err == nil || !strings.Contains(err.Error(), "narrow") {
		t.Fatalf("narrow standby accepted: %v", err)
	}
}

// heldStub is a stubRange with a held range.
type heldStub struct {
	*stubRange
	lo, hi int
}

func (h *heldStub) HeldRange() (int, int) { return h.lo, h.hi }

// TestClusterStaleStandbyRefused: a standby at an older table epoch must
// not silently stand in for its primary — the merge check refuses the
// blend with ErrMixedEpoch instead of returning shares of two tables.
func TestClusterStaleStandbyRefused(t *testing.T) {
	const rows, lanes = 128, 2
	src := &stubTable{rows: rows, lanes: lanes, seed: 54}
	// Two shards; shard 1 has a standby. Move the PRIMARIES (and shard 0)
	// to epoch 1 behind the standby's back by driving their stores
	// directly — the standby stays at epoch 0.
	rep0, err := NewReplica(src.clone(t), Config{Party: 0})
	if err != nil {
		t.Fatal(err)
	}
	prim1, err := NewReplica(src.clone(t), Config{Party: 0})
	if err != nil {
		t.Fatal(err)
	}
	sb1, err := NewReplica(src.clone(t), Config{Party: 0})
	if err != nil {
		t.Fatal(err)
	}
	flaky := &flakyPrimary{Replica: prim1}
	cluster, err := NewCluster(
		ClusterShard{Backend: rep0, Name: "s0"},
		ClusterShard{Backend: flaky, Name: "s1", Members: []Member{sb1}, MemberNames: []string{"s1-standby"}},
	)
	if err != nil {
		t.Fatal(err)
	}
	newRow := make([]uint32, lanes)
	for _, r := range []*Replica{rep0, prim1} {
		if _, err := r.UpdateBatch(context.Background(), []RowWrite{{Row: 5, Vals: newRow}}); err != nil {
			t.Fatal(err)
		}
	}
	keys, _ := genKeys(t, src.clone(t), []uint64{5, 100}, 55)
	if _, err := cluster.Answer(context.Background(), keys); err != nil {
		t.Fatalf("healthy cluster refused: %v", err)
	}
	flaky.trip()
	_, err = cluster.Answer(context.Background(), keys)
	if !errors.Is(err, ErrMixedEpoch) {
		t.Fatalf("stale standby blended in: %v", err)
	}
	for _, want := range []string{"s1-standby", "epoch 0", "epoch 1"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("mixed-epoch error %q does not name %q", err, want)
		}
	}
}

// TestClusterUpdateBatchAtomicAcrossShards: one UpdateBatch touching rows
// in several shards' ranges lands everywhere — answers afterwards are
// bit-identical to a single replica given the same batch — and the
// cluster's epoch advances in lockstep on every member.
func TestClusterUpdateBatchAtomicAcrossShards(t *testing.T) {
	const rows, lanes = 256, 4
	src := &stubTable{rows: rows, lanes: lanes, seed: 56}
	cluster, _ := standbyCluster(t, src, 4)
	ref, err := NewReplica(src.clone(t), Config{Party: 0})
	if err != nil {
		t.Fatal(err)
	}
	writes := []RowWrite{
		{Row: 3, Vals: []uint32{1, 2, 3, 4}},
		{Row: 100, Vals: []uint32{5, 6, 7, 8}},
		{Row: 200, Vals: []uint32{9, 10, 11, 12}},
		{Row: 255, Vals: []uint32{13, 14, 15, 16}},
	}
	epoch, err := cluster.UpdateBatch(context.Background(), writes)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 1 {
		t.Fatalf("cluster update landed at epoch %d, want 1", epoch)
	}
	if got, err := cluster.Epoch(context.Background()); err != nil || got != 1 {
		t.Fatalf("cluster epoch %d (%v), want 1", got, err)
	}
	if _, err := ref.UpdateBatch(context.Background(), writes); err != nil {
		t.Fatal(err)
	}
	keys, _ := genKeys(t, src.clone(t), []uint64{3, 100, 200, 255, 17}, 57)
	want, err := ref.Answer(context.Background(), keys)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cluster.Answer(context.Background(), keys)
	if err != nil {
		t.Fatal(err)
	}
	assertSameShares(t, got, want)
}

// TestClusterUpdateBatchPrepareFailure: a shard that rejects the prepare
// aborts the epoch everywhere — every member stays readable at the old
// epoch with the old content, and the next update succeeds at a fresh
// (never reissued) epoch.
func TestClusterUpdateBatchPrepareFailure(t *testing.T) {
	const rows, lanes = 128, 2
	src := &stubTable{rows: rows, lanes: lanes, seed: 58}
	reps := make([]*Replica, 3)
	members := make([]ClusterShard, 3)
	cause := errors.New("no disk space for the staging copy")
	var failer *prepareFailer
	for i := range members {
		var err error
		reps[i], err = NewReplica(src.clone(t), Config{Party: 0})
		if err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			failer = &prepareFailer{Replica: reps[i], fail: cause}
			members[i] = ClusterShard{Backend: failer, Name: "staging-full"}
			continue
		}
		members[i] = ClusterShard{Backend: reps[i]}
	}
	cluster, err := NewCluster(members...)
	if err != nil {
		t.Fatal(err)
	}
	keys, _ := genKeys(t, src.clone(t), []uint64{0, 64, 127}, 59)
	before, err := cluster.Answer(context.Background(), keys)
	if err != nil {
		t.Fatal(err)
	}
	_, err = cluster.UpdateBatch(context.Background(), []RowWrite{{Row: 10, Vals: []uint32{9, 9}}})
	if err == nil {
		t.Fatal("update succeeded despite a rejecting shard")
	}
	var se *ShardError
	if !errors.As(err, &se) || se.Name != "staging-full" || !errors.Is(err, cause) {
		t.Fatalf("prepare failure reported as %v, want ShardError naming staging-full", err)
	}
	// Every shard is still readable, at the old content.
	after, err := cluster.Answer(context.Background(), keys)
	if err != nil {
		t.Fatalf("cluster unreadable after aborted update: %v", err)
	}
	assertSameShares(t, after, before)
	// The aborted epoch is burned on the members that prepared; a healed
	// cluster (failure cleared) updates successfully at a fresh number.
	failer.fail = nil
	epoch, err := cluster.UpdateBatch(context.Background(), []RowWrite{{Row: 10, Vals: []uint32{9, 9}}})
	if err != nil {
		t.Fatalf("post-abort update failed: %v", err)
	}
	if epoch < 1 {
		t.Fatalf("post-abort update landed at epoch %d", epoch)
	}
	if _, err := cluster.Answer(context.Background(), keys); err != nil {
		t.Fatal(err)
	}
}

// TestClusterUpdateBatchCommitFailure: a shard that dies at commit — after
// its siblings already committed — rolls the whole cluster back: every
// member is readable at the old content, no mixed-epoch state survives,
// and the update path recovers.
func TestClusterUpdateBatchCommitFailure(t *testing.T) {
	const rows, lanes = 128, 2
	src := &stubTable{rows: rows, lanes: lanes, seed: 60}
	members := make([]ClusterShard, 3)
	cause := errors.New("node lost power at commit")
	var failer *commitFailer
	for i := range members {
		rep, err := NewReplica(src.clone(t), Config{Party: 0})
		if err != nil {
			t.Fatal(err)
		}
		if i == 2 {
			failer = &commitFailer{Replica: rep, fail: cause}
			members[i] = ClusterShard{Backend: failer, Name: "power-loss"}
			continue
		}
		members[i] = ClusterShard{Backend: rep}
	}
	cluster, err := NewCluster(members...)
	if err != nil {
		t.Fatal(err)
	}
	keys, _ := genKeys(t, src.clone(t), []uint64{1, 60, 120}, 61)
	before, err := cluster.Answer(context.Background(), keys)
	if err != nil {
		t.Fatal(err)
	}
	_, err = cluster.UpdateBatch(context.Background(), []RowWrite{
		{Row: 1, Vals: []uint32{7, 7}},
		{Row: 120, Vals: []uint32{8, 8}},
	})
	if err == nil {
		t.Fatal("update succeeded despite a commit death")
	}
	var se *ShardError
	if !errors.As(err, &se) || se.Name != "power-loss" || !errors.Is(err, cause) {
		t.Fatalf("commit failure reported as %v, want ShardError naming power-loss", err)
	}
	// The siblings that DID commit were rolled back: the cluster answers
	// the old content, consistently, and the epoch agrees everywhere.
	after, err := cluster.Answer(context.Background(), keys)
	if err != nil {
		t.Fatalf("cluster unreadable after rolled-back update: %v", err)
	}
	assertSameShares(t, after, before)
	if _, err := cluster.Epoch(context.Background()); err != nil {
		t.Fatalf("epochs diverged after rollback: %v", err)
	}
	// Recovery: heal the shard, update again, and see the new content.
	failer.fail = nil
	if _, err := cluster.UpdateBatch(context.Background(), []RowWrite{{Row: 1, Vals: []uint32{7, 7}}}); err != nil {
		t.Fatalf("post-rollback update failed: %v", err)
	}
}

// TestClusterAnswerRetriesAcrossCommitWave: a batch whose fan-out straddles
// an update's commit wave (one shard answers before, one after) is
// detected by the epoch check and re-fanned — the caller sees one
// consistent post-update answer, never a blend.
func TestClusterAnswerRetriesAcrossCommitWave(t *testing.T) {
	const rows, lanes = 128, 2
	src := &stubTable{rows: rows, lanes: lanes, seed: 63}
	rep0, err := NewReplica(src.clone(t), Config{Party: 0})
	if err != nil {
		t.Fatal(err)
	}
	rep1, err := NewReplica(src.clone(t), Config{Party: 0})
	if err != nil {
		t.Fatal(err)
	}
	gate := &gatedBackend{Replica: rep0, answered: make(chan struct{}), release: make(chan struct{})}
	fast := &notifyDone{Replica: rep1, done: make(chan struct{})}
	cluster, err := NewCluster(
		ClusterShard{Backend: gate, Name: "slow"},
		ClusterShard{Backend: fast, Name: "fast"},
	)
	if err != nil {
		t.Fatal(err)
	}
	keys, _ := genKeys(t, src.clone(t), []uint64{5, 100}, 64)

	done := make(chan struct{})
	var answers [][]uint32
	var answerErr error
	go func() {
		defer close(done)
		answers, answerErr = cluster.Answer(context.Background(), keys)
	}()
	// Wait until the fast shard has answered at epoch 0 and the slow
	// shard is parked, then commit an update and release the slow shard:
	// its first-pass partial lands at epoch 1 against the fast shard's
	// epoch-0 partial.
	<-gate.answered
	<-fast.done
	writes := []RowWrite{{Row: 5, Vals: []uint32{42, 43}}}
	if _, err := cluster.UpdateBatch(context.Background(), writes); err != nil {
		t.Fatal(err)
	}
	close(gate.release)
	<-done
	if answerErr != nil {
		t.Fatalf("straddling batch failed: %v", answerErr)
	}
	ref, err := NewReplica(src.clone(t), Config{Party: 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.UpdateBatch(context.Background(), writes); err != nil {
		t.Fatal(err)
	}
	want, err := ref.Answer(context.Background(), keys)
	if err != nil {
		t.Fatal(err)
	}
	assertSameShares(t, answers, want)
	if gate.calls() < 2 {
		t.Fatalf("slow shard served %d calls; the mixed first pass was not retried", gate.calls())
	}
}

// gatedBackend blocks its FIRST AnswerRangeEpoch until released (signaling
// that a sibling has already answered); later calls pass straight through.
type gatedBackend struct {
	*Replica
	mu       sync.Mutex
	n        int
	answered chan struct{} // closed when the first call has parked
	release  chan struct{}
}

func (g *gatedBackend) calls() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.n
}

func (g *gatedBackend) AnswerRangeEpoch(ctx context.Context, keys [][]byte, lo, hi int) ([][]uint32, uint64, bool, error) {
	g.mu.Lock()
	g.n++
	first := g.n == 1
	g.mu.Unlock()
	if first {
		close(g.answered)
		select {
		case <-g.release:
		case <-ctx.Done():
			return nil, 0, false, ctx.Err()
		}
	}
	return g.Replica.AnswerRangeEpoch(ctx, keys, lo, hi)
}

// notifyDone closes done after its first completed range answer.
type notifyDone struct {
	*Replica
	once sync.Once
	done chan struct{}
}

func (n *notifyDone) AnswerRangeEpoch(ctx context.Context, keys [][]byte, lo, hi int) ([][]uint32, uint64, bool, error) {
	a, e, ok, err := n.Replica.AnswerRangeEpoch(ctx, keys, lo, hi)
	n.once.Do(func() { close(n.done) })
	return a, e, ok, err
}
