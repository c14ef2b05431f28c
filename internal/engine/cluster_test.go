package engine

import (
	"context"
	"errors"
	"strings"
	"testing"

	"gpudpf/internal/gpu"
	"gpudpf/internal/strategy"
)

// stubRange is a scriptable Member for fault and validation tests: a real
// party-0 Replica over a zero table of the given shape whose range answers
// and counters are scripted (it never looks at the keys).
type stubRange struct {
	*Replica
	fail     error
	onAnswer func(ctx context.Context, keys [][]byte, lo, hi int) ([][]uint32, error)
}

func stub(t testing.TB, rows, lanes int) *stubRange {
	t.Helper()
	tab, err := strategy.NewTable(rows, lanes)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := NewReplica(tab, Config{Party: 0})
	if err != nil {
		t.Fatal(err)
	}
	return &stubRange{Replica: rep}
}

func (s *stubRange) failing(err error) *stubRange { s.fail = err; return s }

func (s *stubRange) answering(fn func(ctx context.Context, keys [][]byte, lo, hi int) ([][]uint32, error)) *stubRange {
	s.onAnswer = fn
	return s
}

func (s *stubRange) AnswerRangeEpoch(ctx context.Context, keys [][]byte, lo, hi int) ([][]uint32, uint64, bool, error) {
	if s.onAnswer != nil {
		part, err := s.onAnswer(ctx, keys, lo, hi)
		return part, 0, err == nil, err
	}
	if s.fail != nil {
		return nil, 0, false, s.fail
	}
	_, lanes := s.Shape()
	return strategy.NewAnswers(len(keys), lanes), 0, true, nil
}

func (s *stubRange) Counters() gpu.Stats { return gpu.Stats{PRFBlocks: 10, ReadBytes: 20} }

// update1 installs one row through UpdateBatch, the one update path.
func update1(be Backend, row uint64, vals []uint32) error {
	_, err := be.UpdateBatch(context.Background(), []RowWrite{{Row: row, Vals: vals}})
	return err
}

// answerRange is AnswerRangeEpoch for tests that only want the partials.
func answerRange(m Member, keys [][]byte, lo, hi int) ([][]uint32, error) {
	part, _, _, err := m.AnswerRangeEpoch(context.Background(), keys, lo, hi)
	return part, err
}

// TestClusterMatchesReplicaInProcess: clusters of 1..5 in-process replica
// shards answer bit-identically to the unsharded replica, for both
// parties, and the reconstruction matches the table.
func TestClusterMatchesReplicaInProcess(t *testing.T) {
	const rows, lanes = 300, 4
	tab := buildTable(t, rows, lanes, 21)
	indices := []uint64{0, 7, 128, 299}
	k0s, k1s := genKeys(t, tab, indices, 22)

	refs := make([]*Replica, 2)
	for p := range refs {
		var err error
		refs[p], err = NewReplica(tab, Config{Party: p})
		if err != nil {
			t.Fatal(err)
		}
	}
	for shards := 1; shards <= 5; shards++ {
		clusters := make([]*Cluster, 2)
		for p := range clusters {
			members := make([]ClusterShard, shards)
			for i := range members {
				rep, err := NewReplica(tab, Config{Party: p})
				if err != nil {
					t.Fatal(err)
				}
				members[i] = ClusterShard{Backend: rep}
			}
			var err error
			clusters[p], err = NewCluster(members...)
			if err != nil {
				t.Fatal(err)
			}
		}
		for p, keys := range [][][]byte{k0s, k1s} {
			want, err := refs[p].Answer(context.Background(), keys)
			if err != nil {
				t.Fatal(err)
			}
			got, err := clusters[p].Answer(context.Background(), keys)
			if err != nil {
				t.Fatalf("shards=%d party=%d: %v", shards, p, err)
			}
			for q := range want {
				for l := range want[q] {
					if got[q][l] != want[q][l] {
						t.Fatalf("shards=%d party=%d query=%d lane=%d: cluster %#x, replica %#x",
							shards, p, q, l, got[q][l], want[q][l])
					}
				}
			}
		}
		// Reconstruction across the two clusters yields the table rows.
		a0, err := clusters[0].Answer(context.Background(), k0s)
		if err != nil {
			t.Fatal(err)
		}
		a1, err := clusters[1].Answer(context.Background(), k1s)
		if err != nil {
			t.Fatal(err)
		}
		for q, idx := range indices {
			row := tab.Row(int(idx))
			for l := range row {
				if a0[q][l]+a1[q][l] != row[l] {
					t.Fatalf("shards=%d: row %d lane %d does not reconstruct", shards, idx, l)
				}
			}
		}
	}
}

// TestClusterUpdate: single-row writes route to the owning shard and are
// visible to the next answer; out-of-shape writes are rejected.
func TestClusterUpdate(t *testing.T) {
	const rows, lanes = 200, 4
	tab := buildTable(t, rows, lanes, 23)
	members := make([]ClusterShard, 4)
	for i := range members {
		rep, err := NewReplica(tab, Config{Party: 0})
		if err != nil {
			t.Fatal(err)
		}
		members[i] = ClusterShard{Backend: rep}
	}
	cluster, err := NewCluster(members...)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewReplica(buildTable(t, rows, lanes, 23), Config{Party: 0})
	if err != nil {
		t.Fatal(err)
	}
	// Rows in different shards' ranges — since all in-process shards share
	// one table here, routing correctness shows as the write landing at all.
	for _, row := range []uint64{0, 60, 120, 199} {
		vals := []uint32{uint32(row), 2, 3, 4}
		if err := update1(cluster, row, vals); err != nil {
			t.Fatal(err)
		}
		if err := update1(ref, row, vals); err != nil {
			t.Fatal(err)
		}
	}
	k0s, _ := genKeys(t, tab, []uint64{0, 60, 120, 199}, 24)
	got, err := cluster.Answer(context.Background(), k0s)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Answer(context.Background(), k0s)
	if err != nil {
		t.Fatal(err)
	}
	for q := range want {
		for l := range want[q] {
			if got[q][l] != want[q][l] {
				t.Fatalf("post-update query %d lane %d: cluster %#x, replica %#x", q, l, got[q][l], want[q][l])
			}
		}
	}
	if err := update1(cluster, uint64(rows), []uint32{1, 2, 3, 4}); err == nil {
		t.Fatal("out-of-range update accepted")
	}
	if err := update1(cluster, 0, []uint32{1}); err == nil {
		t.Fatal("wrong-width update accepted")
	}
}

// TestClusterConstructionValidation: shape disagreement, oversubscription
// and nil backends are refused with the shard named.
func TestClusterConstructionValidation(t *testing.T) {
	if _, err := NewCluster(); err == nil {
		t.Fatal("empty cluster assembled")
	}
	if _, err := NewCluster(ClusterShard{}); err == nil {
		t.Fatal("nil backend accepted")
	}
	a := stub(t, 100, 4)
	b := stub(t, 100, 8)
	_, err := NewCluster(ClusterShard{Backend: a, Name: "a"}, ClusterShard{Backend: b, Name: "b"})
	if err == nil || !strings.Contains(err.Error(), "100×8") || !strings.Contains(err.Error(), "100×4") {
		t.Fatalf("shape mismatch not named: %v", err)
	}
	tiny := stub(t, 2, 1)
	members := []ClusterShard{{Backend: tiny}, {Backend: tiny}, {Backend: tiny}}
	if _, err := NewCluster(members...); err == nil {
		t.Fatal("3 shards over 2 rows assembled")
	}
}

// TestClusterShardErrorIdentifiesShard: a failing shard is named with its
// index, name and row range, and the error chain keeps the cause.
func TestClusterShardErrorIdentifiesShard(t *testing.T) {
	cause := errors.New("disk on fire")
	members := []ClusterShard{
		{Backend: stub(t, 100, 2), Name: "alpha"},
		{Backend: stub(t, 100, 2).failing(cause), Name: "beta"},
		{Backend: stub(t, 100, 2), Name: "gamma"},
	}
	cluster, err := NewCluster(members...)
	if err != nil {
		t.Fatal(err)
	}
	_, err = cluster.Answer(context.Background(), [][]byte{{1}})
	var se *ShardError
	if !errors.As(err, &se) {
		t.Fatalf("error %v is not a ShardError", err)
	}
	if se.Shard != 1 || se.Name != "beta" {
		t.Fatalf("ShardError names shard %d (%s), want 1 (beta)", se.Shard, se.Name)
	}
	if !errors.Is(err, cause) {
		t.Fatalf("error chain %v lost the cause", err)
	}
	for _, want := range []string{"beta", "shard 1", "[33,66)"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
	}
}

// TestClusterCancellationPreference: when one shard genuinely fails, the
// cancellations it induces in its siblings are not what gets reported.
func TestClusterCancellationPreference(t *testing.T) {
	cause := errors.New("node vanished")
	blocked := func(ctx context.Context, keys [][]byte, lo, hi int) ([][]uint32, error) {
		<-ctx.Done() // sibling: parks until the failing shard cancels the fan-out
		return nil, ctx.Err()
	}
	members := []ClusterShard{
		{Backend: stub(t, 100, 2).answering(blocked), Name: "patient"},
		{Backend: stub(t, 100, 2).failing(cause), Name: "dead"},
	}
	cluster, err := NewCluster(members...)
	if err != nil {
		t.Fatal(err)
	}
	_, err = cluster.Answer(context.Background(), [][]byte{{1}})
	var se *ShardError
	if !errors.As(err, &se) || se.Name != "dead" || !errors.Is(err, cause) {
		t.Fatalf("reported %v, want the genuinely failing shard", err)
	}

	// A pre-cancelled parent context short-circuits before any fan-out.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := cluster.Answer(ctx, [][]byte{{1}}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled ctx: %v", err)
	}
}

// TestClusterCountersAggregate: counters sum across shards.
func TestClusterCountersAggregate(t *testing.T) {
	members := []ClusterShard{
		{Backend: stub(t, 100, 2)},
		{Backend: stub(t, 100, 2)},
		{Backend: stub(t, 100, 2)},
	}
	cluster, err := NewCluster(members...)
	if err != nil {
		t.Fatal(err)
	}
	stats := cluster.Counters()
	if stats.PRFBlocks != 30 || stats.ReadBytes != 60 {
		t.Fatalf("aggregate counters %+v, want PRFBlocks=30 ReadBytes=60", stats)
	}
}

// TestClusterMalformedPartials: a shard returning the wrong number or
// shape of partials is reported as that shard's failure, never merged.
func TestClusterMalformedPartials(t *testing.T) {
	short := func(ctx context.Context, keys [][]byte, lo, hi int) ([][]uint32, error) {
		return [][]uint32{{1, 2}}, nil // one answer regardless of batch size
	}
	members := []ClusterShard{
		{Backend: stub(t, 100, 2), Name: "honest"},
		{Backend: stub(t, 100, 2).answering(short), Name: "liar"},
	}
	cluster, err := NewCluster(members...)
	if err != nil {
		t.Fatal(err)
	}
	_, err = cluster.Answer(context.Background(), [][]byte{{1}, {2}})
	var se *ShardError
	if !errors.As(err, &se) || se.Name != "liar" {
		t.Fatalf("malformed partials reported as %v, want ShardError naming liar", err)
	}
}

// TestClusterValidateKey: a cluster rejects keys for the wrong party,
// depth or domain with the same naming the replica uses.
func TestClusterValidateKey(t *testing.T) {
	const rows, lanes = 256, 4
	tab := buildTable(t, rows, lanes, 31)
	members := make([]ClusterShard, 2)
	for i := range members {
		rep, err := NewReplica(tab, Config{Party: 0})
		if err != nil {
			t.Fatal(err)
		}
		members[i] = ClusterShard{Backend: rep}
	}
	cluster, err := NewCluster(members...)
	if err != nil {
		t.Fatal(err)
	}
	k0s, k1s := genKeys(t, tab, []uint64{5}, 32)
	if err := cluster.ValidateKey(k0s[0]); err != nil {
		t.Fatalf("valid key rejected: %v", err)
	}
	if err := cluster.ValidateKey(k1s[0]); err == nil || !strings.Contains(err.Error(), "party") {
		t.Fatalf("wrong-party key: %v", err)
	}
	if err := cluster.ValidateKey([]byte{0, 1, 2}); err == nil {
		t.Fatal("garbage key accepted")
	}
	smallTab := buildTable(t, 16, lanes, 33)
	smallKeys, _ := genKeys(t, smallTab, []uint64{3}, 34)
	if err := cluster.ValidateKey(smallKeys[0]); err == nil || !strings.Contains(err.Error(), "bits") {
		t.Fatalf("wrong-domain key: %v", err)
	}
}

// TestReplicaAnswerRangePartition: AnswerRangeEpoch partials over any partition
// of the rows sum to the full answer (the property Cluster merging rests
// on), including partitions not aligned to the replica's own shards.
func TestReplicaAnswerRangePartition(t *testing.T) {
	const rows, lanes = 300, 4
	tab := buildTable(t, rows, lanes, 41)
	rep, err := NewReplica(tab, Config{Party: 0, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	keys, _ := genKeys(t, tab, []uint64{0, 150, 299}, 42)
	want, err := rep.Answer(context.Background(), keys)
	if err != nil {
		t.Fatal(err)
	}
	for _, cuts := range [][]int{
		{0, rows},
		{0, 1, rows},
		{0, 37, 153, 154, rows},
		{0, 75, 150, 225, rows},
	} {
		sum := make([][]uint32, len(keys))
		for q := range sum {
			sum[q] = make([]uint32, lanes)
		}
		for c := 0; c+1 < len(cuts); c++ {
			part, err := answerRange(rep, keys, cuts[c], cuts[c+1])
			if err != nil {
				t.Fatalf("range [%d,%d): %v", cuts[c], cuts[c+1], err)
			}
			for q := range sum {
				for l := range sum[q] {
					sum[q][l] += part[q][l]
				}
			}
		}
		for q := range want {
			for l := range want[q] {
				if sum[q][l] != want[q][l] {
					t.Fatalf("partition %v query %d lane %d: %#x != %#x", cuts, q, l, sum[q][l], want[q][l])
				}
			}
		}
	}
	if _, err := answerRange(rep, keys, 10, 5); err == nil {
		t.Fatal("inverted range accepted")
	}
	if _, err := answerRange(rep, keys, 0, rows+1); err == nil {
		t.Fatal("out-of-table range accepted")
	}
}
