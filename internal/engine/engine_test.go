package engine

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"gpudpf/internal/dpf"
	"gpudpf/internal/strategy"
)

// forceGOMAXPROCS raises GOMAXPROCS for the test so every worker budget
// runs in parallel even on a one-core host, restoring it on cleanup.
func forceGOMAXPROCS(t *testing.T, n int) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

func buildTable(t testing.TB, rows, lanes int, seed int64) *strategy.Table {
	t.Helper()
	tab, err := strategy.NewTable(rows, lanes)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := range tab.Data {
		tab.Data[i] = rng.Uint32()
	}
	return tab
}

// genKeys returns marshaled party-0 and party-1 keys for the indices.
func genKeys(t testing.TB, tab *strategy.Table, indices []uint64, seed int64) (k0s, k1s [][]byte) {
	t.Helper()
	prg := dpf.NewAESPRG()
	rng := rand.New(rand.NewSource(seed))
	for _, idx := range indices {
		key0, key1, err := dpf.Gen(prg, idx, tab.Bits(), []uint32{1}, rng)
		if err != nil {
			t.Fatal(err)
		}
		raw0, err := key0.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		raw1, err := key1.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		k0s = append(k0s, raw0)
		k1s = append(k1s, raw1)
	}
	return k0s, k1s
}

// sequential is the default executor on a one-worker budget: no fan-out
// of any kind, the reference every configuration must match bit for bit.
var sequential strategy.Strategy = strategy.MemBoundTree{K: strategy.DefaultK, Workers: 1}

// splitRows is two of the tile loop's 2048-row blocks plus an odd tail, so
// a batch narrower than the worker budget splits each key's leaf range and
// the last sub-range is short.
const splitRows = 2*2048 + 777

// replicaPair answers k0s and k1s through a party-0 and a party-1 replica
// built from cfg.
func replicaPair(t *testing.T, tab *strategy.Table, cfg Config, k0s, k1s [][]byte) (a0, a1 [][]uint32) {
	t.Helper()
	for p, out := range []*[][]uint32{&a0, &a1} {
		cfg.Party = p
		r, err := NewReplica(tab, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if *out, err = r.Answer(context.Background(), [][][]byte{k0s, k1s}[p]); err != nil {
			t.Fatalf("party %d: %v", p, err)
		}
	}
	return a0, a1
}

// TestReplicaMatchesSequential: the default executor on worker budgets
// {1,2,3,8} (under GOMAXPROCS 8, so every budget runs) and the default
// replica answer batches of 1 and 4 keys with the sequential replica's
// shares, and the shares reconstruct the table rows.
func TestReplicaMatchesSequential(t *testing.T) {
	forceGOMAXPROCS(t, 8)
	const lanes = 4
	tab := buildTable(t, splitRows, lanes, 1)
	for _, batch := range []int{1, 4} {
		indices := []uint64{0, 2047, 2048, splitRows - 1}[:batch]
		k0s, k1s := genKeys(t, tab, indices, 2)
		want0, _ := replicaPair(t, tab, Config{Strategy: sequential}, k0s, k1s)
		cfgs := []Config{{}} // the default replica
		for _, w := range []int{1, 2, 3, 8} {
			cfgs = append(cfgs, Config{Strategy: strategy.MemBoundTree{K: strategy.DefaultK, Workers: w}})
		}
		for _, cfg := range cfgs {
			name := "default"
			if cfg.Strategy != nil {
				name = fmt.Sprintf("workers=%d", cfg.Strategy.(strategy.MemBoundTree).Workers)
			}
			a0, a1 := replicaPair(t, tab, cfg, k0s, k1s)
			for q, idx := range indices {
				for l := 0; l < lanes; l++ {
					if a0[q][l] != want0[q][l] {
						t.Fatalf("%s batch=%d key %d lane %d: share %d != sequential %d", name, batch, q, l, a0[q][l], want0[q][l])
					}
					if got := a0[q][l] + a1[q][l]; got != tab.Row(int(idx))[l] {
						t.Fatalf("%s batch=%d key %d lane %d: reconstructed %d != table %d", name, batch, q, l, got, tab.Row(int(idx))[l])
					}
				}
			}
		}
	}
}

// TestReplicaStrategies: Config.Strategy runs the executor at a narrow and
// the default frontier, fused and not, on worker budgets {1,2,3,8} × batches
// of 1 and 4 keys, and every configuration reconstructs the rows.
func TestReplicaStrategies(t *testing.T) {
	forceGOMAXPROCS(t, 8)
	const lanes = 2
	tab := buildTable(t, splitRows, lanes, 3)
	for _, batch := range []int{1, 4} {
		indices := []uint64{5, splitRows - 1, 3000, 4095}[:batch]
		k0s, k1s := genKeys(t, tab, indices, 4)
		for _, s := range []strategy.MemBoundTree{
			{K: 8},
			{K: 128},
		} {
			for _, w := range []int{1, 2, 3, 8} {
				s.Workers = w
				a0, a1 := replicaPair(t, tab, Config{Strategy: s}, k0s, k1s)
				for q, idx := range indices {
					for l := 0; l < lanes; l++ {
						if got := a0[q][l] + a1[q][l]; got != tab.Row(int(idx))[l] {
							t.Fatalf("%s workers=%d batch=%d key %d lane %d: reconstructed %d != table %d",
								s.Name(), w, batch, q, l, got, tab.Row(int(idx))[l])
						}
					}
				}
			}
		}
	}
}

// TestReplicaUpdate: updates land in answers and are serialized against
// reads.
func TestReplicaUpdate(t *testing.T) {
	const rows, lanes = 64, 3
	tab := buildTable(t, rows, lanes, 5)
	r0, err := NewReplica(tab, Config{Party: 0})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := NewReplica(tab, Config{Party: 1})
	if err != nil {
		t.Fatal(err)
	}
	newRow := []uint32{111, 222, 333}
	if err := update1(r0, 10, newRow); err != nil {
		t.Fatal(err)
	}
	if err := update1(r1, 10, newRow); err != nil {
		t.Fatal(err)
	}
	k0s, k1s := genKeys(t, tab, []uint64{10}, 6)
	a0, err := r0.Answer(context.Background(), k0s)
	if err != nil {
		t.Fatal(err)
	}
	a1, err := r1.Answer(context.Background(), k1s)
	if err != nil {
		t.Fatal(err)
	}
	for l, want := range newRow {
		if got := a0[0][l] + a1[0][l]; got != want {
			t.Fatalf("lane %d: reconstructed %d != updated %d", l, got, want)
		}
	}
	if err := update1(r0, uint64(rows), newRow); err == nil {
		t.Error("out-of-range update accepted")
	}
	if err := update1(r0, 0, []uint32{1}); err == nil {
		t.Error("wrong-width update accepted")
	}
}

// TestReplicaValidation: bad configurations and bad batches are rejected.
func TestReplicaValidation(t *testing.T) {
	tab := buildTable(t, 16, 1, 7)
	if _, err := NewReplica(nil, Config{}); err == nil {
		t.Error("nil table accepted")
	}
	if _, err := NewReplica(tab, Config{Party: 2}); err == nil {
		t.Error("party 2 accepted")
	}
	r, err := NewReplica(tab, Config{Party: 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Answer(context.Background(), nil); err == nil {
		t.Error("empty batch accepted")
	}
	if _, err := r.Answer(context.Background(), [][]byte{{1, 2, 3}}); err == nil {
		t.Error("garbage key accepted")
	}
	_, k1s := genKeys(t, tab, []uint64{3}, 8)
	if _, err := r.Answer(context.Background(), k1s); err == nil {
		t.Error("wrong-party key accepted")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	k0s, _ := genKeys(t, tab, []uint64{3}, 9)
	if _, err := r.Answer(ctx, k0s); err == nil {
		t.Error("cancelled context accepted")
	}
}

// TestValidateKey: the no-evaluation key check front doors rely on.
func TestValidateKey(t *testing.T) {
	tab := buildTable(t, 64, 1, 20)
	r, err := NewReplica(tab, Config{Party: 0})
	if err != nil {
		t.Fatal(err)
	}
	k0s, k1s := genKeys(t, tab, []uint64{5}, 21)
	if err := r.ValidateKey(k0s[0]); err != nil {
		t.Errorf("valid key rejected: %v", err)
	}
	if err := r.ValidateKey(k1s[0]); err == nil {
		t.Error("wrong-party key accepted")
	}
	if err := r.ValidateKey([]byte{1, 2, 3}); err == nil {
		t.Error("garbage key accepted")
	}
	bigTab := buildTable(t, 256, 1, 22)
	bigKeys, _ := genKeys(t, bigTab, []uint64{5}, 23)
	if err := r.ValidateKey(bigKeys[0]); err == nil {
		t.Error("wrong-depth key accepted")
	}
}

// genKeysEarly is genKeys at an explicit early-termination depth.
func genKeysEarly(t testing.TB, tab *strategy.Table, indices []uint64, early int, seed int64) (k0s, k1s [][]byte) {
	t.Helper()
	prg := dpf.NewAESPRG()
	rng := rand.New(rand.NewSource(seed))
	for _, idx := range indices {
		key0, key1, err := dpf.GenEarly(prg, idx, tab.Bits(), []uint32{1}, early, rng)
		if err != nil {
			t.Fatal(err)
		}
		raw0, err := key0.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		raw1, err := key1.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		k0s = append(k0s, raw0)
		k1s = append(k1s, raw1)
	}
	return k0s, k1s
}

// TestEarlyDepthValidation: a replica serves exactly one key depth — the
// default replica rejects legacy full-depth keys, which no replica serves,
// and keys of another depth — and the
// rejection names the configured PRF, the parsed wire version, and both
// depths, so a mismatched client knows exactly what to fix.
func TestEarlyDepthValidation(t *testing.T) {
	tab := buildTable(t, 64, 1, 30)
	def, err := NewReplica(tab, Config{Party: 0})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := def.EarlyBits(), dpf.DefaultEarlyBits; got != want {
		t.Fatalf("default EarlyBits = %d, want %d", got, want)
	}
	defKeys, _ := genKeys(t, tab, []uint64{5}, 31)
	v1Keys, _ := genKeysEarly(t, tab, []uint64{5}, 0, 32)

	if err := def.ValidateKey(defKeys[0]); err != nil {
		t.Errorf("default replica rejected default key: %v", err)
	}
	err = def.ValidateKey(v1Keys[0])
	if err == nil {
		t.Fatal("default replica accepted full-depth key")
	}
	for _, want := range []string{"prg=aes128", "wire v1", "depth 0", "depth 2"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("v1-against-default error %q missing %q", err, want)
		}
	}
	if _, err := def.Answer(context.Background(), v1Keys); err == nil {
		t.Error("default replica answered full-depth key")
	}

	// A replica at another served depth refuses both the full-depth key
	// and the default-depth one.
	shallow, err := NewReplica(tab, Config{Party: 0, EarlyBits: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := shallow.ValidateKey(v1Keys[0]); err == nil || !strings.Contains(err.Error(), "wire v1") {
		t.Errorf("depth-1 replica on a full-depth key: %v", err)
	}
	err = shallow.ValidateKey(defKeys[0])
	if err == nil {
		t.Fatal("depth-1 replica accepted a depth-2 key")
	}
	for _, want := range []string{"depth 2", "depth 1"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("depth-2-against-depth-1 error %q missing %q", err, want)
		}
	}

	// Both depths answer when matched, and the shares they produce
	// reconstruct the same table row.
	shallow1, err := NewReplica(tab, Config{Party: 1, EarlyBits: 1})
	if err != nil {
		t.Fatal(err)
	}
	def1, err := NewReplica(tab, Config{Party: 1})
	if err != nil {
		t.Fatal(err)
	}
	d1Party0, d1Party1 := genKeysEarly(t, tab, []uint64{5}, 1, 32)
	_, defParty1 := genKeys(t, tab, []uint64{5}, 31)
	ctx := context.Background()
	a0def, err := def.Answer(ctx, defKeys)
	if err != nil {
		t.Fatal(err)
	}
	a1def, err := def1.Answer(ctx, defParty1)
	if err != nil {
		t.Fatal(err)
	}
	a0d1, err := shallow.Answer(ctx, d1Party0)
	if err != nil {
		t.Fatal(err)
	}
	a1d1, err := shallow1.Answer(ctx, d1Party1)
	if err != nil {
		t.Fatal(err)
	}
	want := tab.Row(5)[0]
	if got := a0def[0][0] + a1def[0][0]; got != want {
		t.Errorf("depth-2 reconstruction = %d, want %d", got, want)
	}
	if got := a0d1[0][0] + a1d1[0][0]; got != want {
		t.Errorf("depth-1 reconstruction = %d, want %d", got, want)
	}

	// Full-depth keys are not served: the old sentinel is refused by name.
	if _, err := NewReplica(tab, Config{Party: 0, EarlyBits: -1}); err == nil || !strings.Contains(err.Error(), "full-depth") {
		t.Errorf("EarlyBits -1: %v, want the full-depth refusal", err)
	}
	if _, err := NewReplica(tab, Config{Party: 0, EarlyBits: dpf.MaxEarlyBits + 1}); err == nil {
		t.Error("out-of-range EarlyBits accepted")
	}
}

// TestKeyWireV2Refused: replicas and clusters serve key wire v3 only. A
// v2 key of the served depth — the same key a v3 one carries — is refused
// by ValidateKey and Answer with both wire versions named, and its v3
// encoding is answered.
func TestKeyWireV2Refused(t *testing.T) {
	tab := buildTable(t, 64, 1, 33)
	rep, err := NewReplica(tab, Config{Party: 0})
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := NewCluster(ClusterShard{Backend: rep})
	if err != nil {
		t.Fatal(err)
	}
	k0, _, err := dpf.Gen(dpf.NewAESPRG(), 5, tab.Bits(), []uint32{1}, rand.New(rand.NewSource(34)))
	if err != nil {
		t.Fatal(err)
	}
	v3, err := k0.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	k0.Wire = 2
	v2, err := k0.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	_, answerErr := rep.Answer(ctx, [][]byte{v2})
	_, clusterErr := cluster.Answer(ctx, [][]byte{v2})
	for name, err := range map[string]error{
		"replica ValidateKey": rep.ValidateKey(v2),
		"replica Answer":      answerErr,
		"cluster ValidateKey": cluster.ValidateKey(v2),
		"cluster Answer":      clusterErr,
	} {
		if err == nil {
			t.Fatalf("%s accepted a wire-v2 key", name)
		}
		for _, want := range []string{"key wire v2", "serves key wire v3"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: %q does not name %q", name, err, want)
			}
		}
	}
	if _, err := rep.Answer(ctx, [][]byte{v3}); err != nil {
		t.Fatalf("the same key in wire v3: %v", err)
	}
	if err := cluster.ValidateKey(v3); err != nil {
		t.Fatalf("cluster on the same key in wire v3: %v", err)
	}
}

// TestDefaultStrategyAtEveryWidth: a default replica runs the
// memory-bounded executor on a GOMAXPROCS budget — including at the
// paper's 2^22-row cooperative-groups threshold, where the modeled
// scheduler (model.Schedule) picks CoopGroups for a GPU — and a 32-key
// batch over the whole table reconstructs its rows.
func TestDefaultStrategyAtEveryWidth(t *testing.T) {
	const coopThresholdBits = 22 // model.CoopThresholdBits (§3.2.5)
	const rows = 1 << coopThresholdBits
	tab := buildTable(t, rows, 1, 22)
	var whole [2]*Replica
	for party := range whole {
		r, err := NewReplica(tab, Config{Party: party})
		if err != nil {
			t.Fatal(err)
		}
		want := strategy.MemBoundTree{K: strategy.DefaultK, Workers: runtime.GOMAXPROCS(0)}
		if got := r.Strategy(); got != want {
			t.Errorf("2^%d table runs %+v, want %+v", coopThresholdBits, got, want)
		}
		whole[party] = r
	}
	indices := make([]uint64, 32)
	rng := rand.New(rand.NewSource(23))
	for q := range indices {
		indices[q] = uint64(rng.Intn(rows))
	}
	k0s, k1s := genKeys(t, tab, indices, 24)
	a0, err := whole[0].Answer(context.Background(), k0s)
	if err != nil {
		t.Fatal(err)
	}
	a1, err := whole[1].Answer(context.Background(), k1s)
	if err != nil {
		t.Fatal(err)
	}
	for q, idx := range indices {
		if got, want := a0[q][0]+a1[q][0], tab.Row(int(idx))[0]; got != want {
			t.Errorf("key %d (row %d): reconstructed %d, want %d", q, idx, got, want)
		}
	}
}

// TestReplicaShape: Shape and Counters are wired through.
func TestReplicaShape(t *testing.T) {
	tab := buildTable(t, 48, 5, 10)
	r, err := NewReplica(tab, Config{Party: 0})
	if err != nil {
		t.Fatal(err)
	}
	rows, lanes := r.Shape()
	if rows != 48 || lanes != 5 {
		t.Fatalf("Shape() = %d, %d; want 48, 5", rows, lanes)
	}
	k0s, _ := genKeys(t, tab, []uint64{1}, 11)
	if _, err := r.Answer(context.Background(), k0s); err != nil {
		t.Fatal(err)
	}
	if st := r.Counters(); st.PRFBlocks == 0 {
		t.Error("no PRF blocks counted")
	}
}
