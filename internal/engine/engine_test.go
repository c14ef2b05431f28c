package engine

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"gpudpf/internal/dpf"
	"gpudpf/internal/strategy"
)

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

// TestReplicaMatchesSequential: for several shard/worker configurations the
// reconstructed rows match the table — and every configuration produces the
// same shares as the unsharded reference.
func TestReplicaMatchesSequential(t *testing.T) {
	const rows, lanes = 300, 4
	tab := buildTable(t, rows, lanes, 1)
	indices := []uint64{0, 7, 128, 299}
	k0s, k1s := genKeys(t, tab, indices, 2)

	ref0, err := NewReplica(tab, Config{Party: 0, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	want0, err := ref0.Answer(context.Background(), k0s)
	if err != nil {
		t.Fatal(err)
	}

	for _, cfg := range []Config{
		{Shards: 2, Workers: 1},
		{Shards: 3, Workers: 2},
		{Shards: 8, Workers: 4},
		{Shards: 1000, Workers: 8}, // clamped to rows
	} {
		cfg0, cfg1 := cfg, cfg
		cfg0.Party, cfg1.Party = 0, 1
		r0, err := NewReplica(tab, cfg0)
		if err != nil {
			t.Fatal(err)
		}
		r1, err := NewReplica(tab, cfg1)
		if err != nil {
			t.Fatal(err)
		}
		a0, err := r0.Answer(context.Background(), k0s)
		if err != nil {
			t.Fatalf("shards=%d: %v", cfg.Shards, err)
		}
		a1, err := r1.Answer(context.Background(), k1s)
		if err != nil {
			t.Fatalf("shards=%d: %v", cfg.Shards, err)
		}
		for q, idx := range indices {
			for l := 0; l < lanes; l++ {
				if a0[q][l] != want0[q][l] {
					t.Fatalf("shards=%d key %d lane %d: share %d != sequential %d",
						cfg.Shards, q, l, a0[q][l], want0[q][l])
				}
				if got := a0[q][l] + a1[q][l]; got != tab.Row(int(idx))[l] {
					t.Fatalf("shards=%d key %d lane %d: reconstructed %d != table %d",
						cfg.Shards, q, l, got, tab.Row(int(idx))[l])
				}
			}
		}
	}
}

// TestReplicaStrategies: sharding composes with the executor at a narrow
// and the default frontier, fused and not.
func TestReplicaStrategies(t *testing.T) {
	const rows, lanes = 200, 2
	tab := buildTable(t, rows, lanes, 3)
	indices := []uint64{5, 199}
	k0s, k1s := genKeys(t, tab, indices, 4)
	for _, s := range []strategy.MemBoundTree{
		{K: 8, Fused: true},
		{K: 8, Fused: false},
		{K: 128, Fused: true},
		{K: 128, Fused: false},
	} {
		r0, err := NewReplica(tab, Config{Party: 0, Shards: 4, Workers: 2, Strategy: s})
		if err != nil {
			t.Fatal(err)
		}
		r1, err := NewReplica(tab, Config{Party: 1, Shards: 4, Workers: 2, Strategy: s})
		if err != nil {
			t.Fatal(err)
		}
		a0, err := r0.Answer(context.Background(), k0s)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		a1, err := r1.Answer(context.Background(), k1s)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		for q, idx := range indices {
			for l := 0; l < lanes; l++ {
				if got := a0[q][l] + a1[q][l]; got != tab.Row(int(idx))[l] {
					t.Fatalf("%s key %d lane %d: reconstructed %d != table %d",
						s.Name(), q, l, got, tab.Row(int(idx))[l])
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
	r0, err := NewReplica(tab, Config{Party: 0, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := NewReplica(tab, Config{Party: 1, Shards: 4})
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
	if _, err := NewReplica(tab, Config{Shards: -1}); err == nil {
		t.Error("negative shards accepted")
	}
	r, err := NewReplica(tab, Config{Party: 0, Shards: 2})
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
// default replica rejects legacy full-depth keys and vice versa — and the
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
	v2Keys, _ := genKeys(t, tab, []uint64{5}, 31)
	v1Keys, _ := genKeysEarly(t, tab, []uint64{5}, 0, 32)

	if err := def.ValidateKey(v2Keys[0]); err != nil {
		t.Errorf("default replica rejected default key: %v", err)
	}
	err = def.ValidateKey(v1Keys[0])
	if err == nil {
		t.Fatal("default replica accepted full-depth key")
	}
	for _, want := range []string{"prg=aes128", "wire v1", "depth 0", "depth 2"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("v1-against-v2 error %q missing %q", err, want)
		}
	}
	if _, err := def.Answer(context.Background(), v1Keys); err == nil {
		t.Error("default replica answered full-depth key")
	}

	legacy, err := NewReplica(tab, Config{Party: 0, EarlyBits: FullDepthKeys})
	if err != nil {
		t.Fatal(err)
	}
	if legacy.EarlyBits() != 0 {
		t.Fatalf("FullDepthKeys EarlyBits = %d, want 0", legacy.EarlyBits())
	}
	if err := legacy.ValidateKey(v1Keys[0]); err != nil {
		t.Errorf("legacy replica rejected full-depth key: %v", err)
	}
	err = legacy.ValidateKey(v2Keys[0])
	if err == nil {
		t.Fatal("legacy replica accepted early-terminated key")
	}
	if !strings.Contains(err.Error(), "wire v2") {
		t.Errorf("v2-against-v1 error %q missing wire version", err)
	}

	// Both depths answer when matched, and the shares they produce
	// reconstruct the same table row.
	legacy1, err := NewReplica(tab, Config{Party: 1, EarlyBits: FullDepthKeys})
	if err != nil {
		t.Fatal(err)
	}
	def1, err := NewReplica(tab, Config{Party: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, v1Party1 := genKeysEarly(t, tab, []uint64{5}, 0, 32)
	_, v2Party1 := genKeys(t, tab, []uint64{5}, 31)
	ctx := context.Background()
	a0v2, err := def.Answer(ctx, v2Keys)
	if err != nil {
		t.Fatal(err)
	}
	a1v2, err := def1.Answer(ctx, v2Party1)
	if err != nil {
		t.Fatal(err)
	}
	a0v1, err := legacy.Answer(ctx, v1Keys)
	if err != nil {
		t.Fatal(err)
	}
	a1v1, err := legacy1.Answer(ctx, v1Party1)
	if err != nil {
		t.Fatal(err)
	}
	want := tab.Row(5)[0]
	if got := a0v2[0][0] + a1v2[0][0]; got != want {
		t.Errorf("v2 reconstruction = %d, want %d", got, want)
	}
	if got := a0v1[0][0] + a1v1[0][0]; got != want {
		t.Errorf("v1 reconstruction = %d, want %d", got, want)
	}

	if _, err := NewReplica(tab, Config{Party: 0, EarlyBits: dpf.MaxEarlyBits + 1}); err == nil {
		t.Error("out-of-range EarlyBits accepted")
	}
}

// TestDefaultStrategyAtEveryWidth: a default replica runs the fused
// memory-bounded executor whatever its shard width — including at and
// above the paper's 2^22-row cooperative-groups threshold, where the
// modeled scheduler (strategy.Schedule) picks CoopGroups for a GPU — and a
// 32-key batch over the whole unsharded table reconstructs its rows.
func TestDefaultStrategyAtEveryWidth(t *testing.T) {
	const rows = 1 << strategy.CoopThresholdBits
	tab := buildTable(t, rows, 1, 22)
	var whole [2]*Replica
	for _, shards := range []int{1, 8} {
		for party := range whole {
			r, err := NewReplica(tab, Config{Party: party, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			if got := r.Strategy().Name(); got != "membound-fused" {
				t.Errorf("%d-shard 2^%d table runs %s, want membound-fused", shards, strategy.CoopThresholdBits, got)
			}
			if shards == 1 {
				whole[party] = r
			}
		}
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
	r, err := NewReplica(tab, Config{Party: 0, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	rows, lanes := r.Shape()
	if rows != 48 || lanes != 5 {
		t.Fatalf("Shape() = %d, %d; want 48, 5", rows, lanes)
	}
	if r.Shards() != 3 {
		t.Fatalf("Shards() = %d, want 3", r.Shards())
	}
	k0s, _ := genKeys(t, tab, []uint64{1}, 11)
	if _, err := r.Answer(context.Background(), k0s); err != nil {
		t.Fatal(err)
	}
	if st := r.Counters(); st.PRFBlocks == 0 {
		t.Error("no PRF blocks counted")
	}
}
