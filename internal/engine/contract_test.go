package engine

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// Who fills which role (shardnet pins its Client the same way).
var (
	_ Member       = (*Replica)(nil)
	_ KeyValidator = (*Replica)(nil)
	_ SnapshotSink = (*Replica)(nil)

	_ Backend           = (*Cluster)(nil)
	_ KeyValidator      = (*Cluster)(nil)
	_ EpochRetryCounter = (*Cluster)(nil)
)

// TestSeamContract pins the two roles' method sets exactly, so the seam
// cannot quietly regrow into optional interfaces and probes: a method a
// cluster or a front door needs is added here, on purpose, or not at all.
func TestSeamContract(t *testing.T) {
	backend := []string{"Answer", "Counters", "Shape", "UpdateBatch"}
	member := append([]string{
		"AnswerRangeEpoch",
		"Epoch", "PrepareUpdate", "CommitUpdate", "AbortUpdate",
		"PRGName", "Party", "HeldRange", "Ping",
		"SnapshotMeta", "SnapshotChunk",
	}, backend...)
	for _, tc := range []struct {
		typ  reflect.Type
		want []string
	}{
		{reflect.TypeOf((*Backend)(nil)).Elem(), backend},
		{reflect.TypeOf((*Member)(nil)).Elem(), member},
	} {
		var got []string
		for i := 0; i < tc.typ.NumMethod(); i++ {
			got = append(got, tc.typ.Method(i).Name)
		}
		slices.Sort(got)
		slices.Sort(tc.want)
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s declares %v, want exactly %v", tc.typ.Name(), got, tc.want)
		}
	}
}

// epochless answers correctly but cannot say at which table epoch.
type epochless struct{ *Replica }

func (e epochless) AnswerRangeEpoch(ctx context.Context, keys [][]byte, lo, hi int) ([][]uint32, uint64, bool, error) {
	part, _, _, err := e.Replica.AnswerRangeEpoch(ctx, keys, lo, hi)
	return part, 0, false, err
}

// TestClusterRefusesEpochlessPartial: a partial that does not name its
// table epoch is never merged — the batch fails with a ShardError naming
// the member that produced it.
func TestClusterRefusesEpochlessPartial(t *testing.T) {
	src := &stubTable{rows: 128, lanes: 2, seed: 71}
	reps := make([]*Replica, 2)
	for i := range reps {
		var err error
		if reps[i], err = NewReplica(src.clone(t), Config{Party: 0}); err != nil {
			t.Fatal(err)
		}
	}
	cluster, err := NewCluster(
		ClusterShard{Backend: reps[0], Name: "dated"},
		ClusterShard{Backend: epochless{reps[1]}, Name: "mute"},
	)
	if err != nil {
		t.Fatal(err)
	}
	keys, _ := genKeys(t, src.clone(t), []uint64{5, 100}, 72)
	answers, err := cluster.Answer(context.Background(), keys)
	var se *ShardError
	if !errors.As(err, &se) || se.Shard != 1 || se.Name != "mute" {
		t.Fatalf("epoch-less partial gave (%v, %v), want a ShardError naming shard 1 (mute)", answers, err)
	}
	if !strings.Contains(err.Error(), "no table epoch") {
		t.Fatalf("error %q does not say why the partial was refused", err)
	}
}
