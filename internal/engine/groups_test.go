package engine

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
)

// countingMember wraps a healthy replica and counts the answer batches
// routed to it, so load-balance tests can observe the rotation.
type countingMember struct {
	*Replica
	batches atomic.Int64
}

func (m *countingMember) AnswerRangeEpoch(ctx context.Context, keys [][]byte, lo, hi int) ([][]uint32, uint64, bool, error) {
	m.batches.Add(1)
	return m.Replica.AnswerRangeEpoch(ctx, keys, lo, hi)
}

// groupCluster builds a one-shard party-0 cluster whose replica group has
// n members over src's content, each wrapped in flakyPrimary for
// tripping, and a reference replica over the same content.
func groupCluster(t *testing.T, src *stubTable, n int) (*Cluster, []*flakyPrimary, *Replica) {
	t.Helper()
	sh := ClusterShard{}
	members := make([]*flakyPrimary, n)
	for j := range members {
		rep, err := NewReplica(src.clone(t), Config{Party: 0})
		if err != nil {
			t.Fatal(err)
		}
		members[j] = &flakyPrimary{Replica: rep}
		sh.Members = append(sh.Members, members[j])
		sh.MemberNames = append(sh.MemberNames, string(rune('a'+j)))
	}
	cluster, err := NewCluster(sh)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewReplica(src.clone(t), Config{Party: 0})
	if err != nil {
		t.Fatal(err)
	}
	return cluster, members, ref
}

// TestClusterGroupLoadBalance: sequential batches against a healthy
// three-member group rotate across all members instead of pinning one.
func TestClusterGroupLoadBalance(t *testing.T) {
	const rows, lanes, batches = 128, 2, 30
	src := &stubTable{rows: rows, lanes: lanes, seed: 61}
	sh := ClusterShard{}
	members := make([]*countingMember, 3)
	for j := range members {
		rep, err := NewReplica(src.clone(t), Config{Party: 0})
		if err != nil {
			t.Fatal(err)
		}
		members[j] = &countingMember{Replica: rep}
		sh.Members = append(sh.Members, members[j])
	}
	cluster, err := NewCluster(sh)
	if err != nil {
		t.Fatal(err)
	}
	if got := cluster.GroupSize(0); got != 3 {
		t.Fatalf("GroupSize = %d, want 3", got)
	}
	keys, _ := genKeys(t, src.clone(t), []uint64{3, 77}, 62)
	for i := 0; i < batches; i++ {
		if _, err := cluster.Answer(context.Background(), keys); err != nil {
			t.Fatal(err)
		}
	}
	total := int64(0)
	for j, m := range members {
		n := m.batches.Load()
		total += n
		if n < batches/3-2 {
			t.Fatalf("member %d served %d of %d batches; rotation is pinning", j, n, batches)
		}
	}
	if total != batches {
		t.Fatalf("%d member batches for %d cluster batches", total, batches)
	}
}

// TestClusterGroupKillOneOfThree: a member killed mid-service trips its
// breaker after enough consecutive failures while every batch keeps
// succeeding, bit-identical to a single-process replica.
func TestClusterGroupKillOneOfThree(t *testing.T) {
	const rows, lanes = 128, 2
	src := &stubTable{rows: rows, lanes: lanes, seed: 63}
	cluster, members, ref := groupCluster(t, src, 3)
	keys, _ := genKeys(t, src.clone(t), []uint64{5, 99, 127}, 64)
	want, err := ref.Answer(context.Background(), keys)
	if err != nil {
		t.Fatal(err)
	}
	members[1].trip()
	// Enough batches to hit the dead member more than tripFailures times.
	for i := 0; i < 4*tripFailures; i++ {
		got, err := cluster.Answer(context.Background(), keys)
		if err != nil {
			t.Fatalf("batch %d failed despite two healthy members: %v", i, err)
		}
		assertSameShares(t, got, want)
	}
	st := cluster.Status(0)
	if !st[1].Tripped || st[1].LastErr == nil {
		t.Fatalf("dead member not tripped: %+v", st[1])
	}
	if st[0].Tripped || st[2].Tripped {
		t.Fatalf("healthy members tripped: %+v", st)
	}
}

// TestClusterGroupDegradedToOne: with N-1 members dead the group is
// degraded but still serving, bit-identical.
func TestClusterGroupDegradedToOne(t *testing.T) {
	const rows, lanes = 128, 2
	src := &stubTable{rows: rows, lanes: lanes, seed: 65}
	cluster, members, ref := groupCluster(t, src, 3)
	keys, _ := genKeys(t, src.clone(t), []uint64{0, 64}, 66)
	want, err := ref.Answer(context.Background(), keys)
	if err != nil {
		t.Fatal(err)
	}
	members[0].trip()
	members[2].trip()
	for i := 0; i < 2*tripFailures; i++ {
		got, err := cluster.Answer(context.Background(), keys)
		if err != nil {
			t.Fatalf("batch %d failed despite one live member: %v", i, err)
		}
		assertSameShares(t, got, want)
	}
}

// TestClusterGroupAllDeadEnumerates: when every member of a group fails,
// the ShardError enumerates each member by name with its own error, and
// the first member's cause stays reachable through errors.Is.
func TestClusterGroupAllDeadEnumerates(t *testing.T) {
	causeA := errors.New("connection reset by peer")
	causeC := errors.New("no route to host")
	sh := ClusterShard{
		Members: []Member{
			stub(t, 100, 2).failing(causeA),
			stub(t, 100, 2).failing(errors.New("i/o timeout")),
			stub(t, 100, 2).failing(causeC),
		},
		MemberNames: []string{"node-a", "node-b", "node-c"},
	}
	cluster, err := NewCluster(sh)
	if err != nil {
		t.Fatal(err)
	}
	_, err = cluster.Answer(context.Background(), [][]byte{{1}})
	var se *ShardError
	if !errors.As(err, &se) || se.Shard != 0 {
		t.Fatalf("all-dead group reported as %v, want ShardError for shard 0", err)
	}
	for _, c := range []error{causeA, causeC} {
		if !errors.Is(err, c) {
			t.Fatalf("error chain %v lost member cause %v", err, c)
		}
	}
	for _, want := range []string{"node-a", "node-b", "node-c", "connection reset", "i/o timeout", "no route"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
	}
}

// TestClusterQuarantineAndHeal is the replica-group promotion story end
// to end: a member that misses an epoch is quarantined by the next update
// handshake (the update itself succeeds on the rest of the group), the
// cluster keeps serving bit-identically without it, Heal brings it back
// to the current epoch via snapshot transfer, and afterwards it serves
// and participates in updates again.
func TestClusterQuarantineAndHeal(t *testing.T) {
	const rows, lanes = 128, 2
	src := &stubTable{rows: rows, lanes: lanes, seed: 67}
	cluster, members, ref := groupCluster(t, src, 3)
	ctx := context.Background()

	// Advance members 0 and 1 behind the cluster's back; member 2 misses
	// the epoch.
	w1 := []RowWrite{{Row: 5, Vals: make([]uint32, lanes)}}
	for _, m := range members[:2] {
		if _, err := m.Replica.UpdateBatch(ctx, w1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ref.UpdateBatch(ctx, w1); err != nil {
		t.Fatal(err)
	}

	// The next cluster update quarantines the laggard and lands on the
	// rest of the group.
	w2 := []RowWrite{{Row: 7, Vals: []uint32{9, 9}}}
	if _, err := cluster.UpdateBatch(ctx, w2); err != nil {
		t.Fatalf("update failed despite two current members: %v", err)
	}
	if _, err := ref.UpdateBatch(ctx, w2); err != nil {
		t.Fatal(err)
	}
	st := cluster.Status(0)
	if !st[2].Quarantined {
		t.Fatalf("laggard member not quarantined: %+v", st)
	}
	if st[0].Quarantined || st[1].Quarantined {
		t.Fatalf("current members quarantined: %+v", st)
	}

	// Degraded but serving, bit-identically, off the healthy members.
	keys, _ := genKeys(t, src.clone(t), []uint64{5, 7, 100}, 68)
	want, err := ref.Answer(ctx, keys)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		got, err := cluster.Answer(ctx, keys)
		if err != nil {
			t.Fatal(err)
		}
		assertSameShares(t, got, want)
	}

	// Heal the quarantined member from a healthy donor and verify it is
	// back: rotation-clean status, epochs in lockstep, and its own
	// answers bit-identical once its siblings are killed.
	if err := cluster.Heal(ctx, 0, 2); err != nil {
		t.Fatalf("heal failed: %v", err)
	}
	if st := cluster.Status(0); st[2].Quarantined || st[2].Tripped {
		t.Fatalf("healed member still out of rotation: %+v", st[2])
	}
	healedEpoch, err := members[2].Replica.Epoch(ctx)
	if err != nil {
		t.Fatal(err)
	}
	donorEpoch, err := members[0].Replica.Epoch(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if healedEpoch != donorEpoch {
		t.Fatalf("healed member at epoch %d, donor at %d", healedEpoch, donorEpoch)
	}
	members[0].trip()
	members[1].trip()
	for i := 0; i < 2*tripFailures; i++ {
		got, err := cluster.Answer(ctx, keys)
		if err != nil {
			t.Fatalf("healed member not serving: %v", err)
		}
		assertSameShares(t, got, want)
	}

	// And it participates in the next epoch handshake.
	w3 := []RowWrite{{Row: 11, Vals: []uint32{3, 4}}}
	if _, err := cluster.UpdateBatch(ctx, w3); err != nil {
		t.Fatalf("post-heal update failed: %v", err)
	}
	e2, err := members[2].Replica.Epoch(ctx)
	if err != nil {
		t.Fatal(err)
	}
	e0, err := members[0].Replica.Epoch(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if e2 != e0 {
		t.Fatalf("healed member missed the post-heal update: epoch %d vs %d", e2, e0)
	}
}

// TestClusterHealRefusesBadIndices: Heal validates its addressing instead
// of panicking on a bad shard or member index.
func TestClusterHealRefusesBadIndices(t *testing.T) {
	src := &stubTable{rows: 64, lanes: 2, seed: 69}
	cluster, _, _ := groupCluster(t, src, 2)
	if err := cluster.Heal(context.Background(), 5, 0); err == nil || !strings.Contains(err.Error(), "no shard 5") {
		t.Fatalf("bad shard index: %v", err)
	}
	if err := cluster.Heal(context.Background(), 0, 7); err == nil || !strings.Contains(err.Error(), "no member 7") {
		t.Fatalf("bad member index: %v", err)
	}
}
