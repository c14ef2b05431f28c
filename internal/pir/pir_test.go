package pir

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	randv2 "math/rand/v2"
	"net"
	"testing"
	"testing/quick"

	"gpudpf/internal/dpf"
	"gpudpf/internal/engine"
	"gpudpf/internal/strategy"
)

func fillTable(t *testing.T, rows, lanes int) *Table {
	t.Helper()
	tab, err := NewTable(rows, lanes)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(rows*31 + lanes)))
	for i := range tab.Data {
		tab.Data[i] = rng.Uint32()
	}
	return tab
}

func newPair(t *testing.T, tab *Table, opts ...ServerOption) *TwoServer {
	t.Helper()
	s0, err := NewServer(0, tab, opts...)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := NewServer(1, tab, opts...)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClient("aes128", tab.NumRows, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	return &TwoServer{Client: c, E0: InProcess{s0}, E1: InProcess{s1}}
}

// TestEndToEndInProcess: the full protocol retrieves exact rows.
func TestEndToEndInProcess(t *testing.T) {
	tab := fillTable(t, 300, 8)
	ts := newPair(t, tab)
	indices := []uint64{0, 1, 137, 299}
	rows, stats, err := ts.Fetch(indices)
	if err != nil {
		t.Fatal(err)
	}
	for q, idx := range indices {
		want := tab.Row(int(idx))
		for l := range want {
			if rows[q][l] != want[l] {
				t.Fatalf("row %d lane %d: got %d want %d", idx, l, rows[q][l], want[l])
			}
		}
	}
	wantUp := int64(2 * len(indices) * ts.Client.KeyBytes())
	if stats.UpBytes != wantUp {
		t.Errorf("UpBytes = %d, want %d", stats.UpBytes, wantUp)
	}
	wantDown := int64(2 * len(indices) * tab.Lanes * 4)
	if stats.DownBytes != wantDown {
		t.Errorf("DownBytes = %d, want %d", stats.DownBytes, wantDown)
	}
	if stats.Total() != wantUp+wantDown {
		t.Error("Total != Up+Down")
	}
}

// TestEndToEndTCP exercises the real framed TCP transport.
func TestEndToEndTCP(t *testing.T) {
	tab := fillTable(t, 128, 4)
	s0, err := NewServer(0, tab)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := NewServer(1, tab)
	if err != nil {
		t.Fatal(err)
	}
	l0, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go Serve(l0, s0)
	go Serve(l1, s1)
	defer l0.Close()
	defer l1.Close()

	e0, err := Dial(l0.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer e0.Close()
	e1, err := Dial(l1.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer e1.Close()

	c, err := NewClient("aes128", tab.NumRows, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	ts := &TwoServer{Client: c, E0: e0, E1: e1}
	// Two sequential fetches over the same connections.
	for round := 0; round < 2; round++ {
		rows, _, err := ts.Fetch([]uint64{5, 99})
		if err != nil {
			t.Fatal(err)
		}
		for q, idx := range []int{5, 99} {
			want := tab.Row(idx)
			for l := range want {
				if rows[q][l] != want[l] {
					t.Fatalf("round %d row %d: mismatch", round, idx)
				}
			}
		}
	}
}

// TestFloatEmbeddingRoundTrip: float32 embeddings survive PIR bit-exactly.
func TestFloatEmbeddingRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	emb := make([][]float32, 50)
	for i := range emb {
		emb[i] = make([]float32, 16)
		for j := range emb[i] {
			emb[i][j] = rng.Float32()*2 - 1
		}
	}
	tab, err := NewTable(len(emb), 16)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range emb {
		PackFloats(tab.Row(i), r)
	}
	ts := newPair(t, tab)
	keys0, keys1, err := ts.Client.QueryBatch([]uint64{17})
	if err != nil {
		t.Fatal(err)
	}
	a0, err := ts.E0.Answer(keys0)
	if err != nil {
		t.Fatal(err)
	}
	a1, err := ts.E1.Answer(keys1)
	if err != nil {
		t.Fatal(err)
	}
	row, err := Reconstruct(a0[0], a1[0])
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float32, len(row))
	UnpackFloats(got, row)
	for j := range got {
		if got[j] != emb[17][j] {
			t.Fatalf("lane %d: %g != %g", j, got[j], emb[17][j])
		}
	}
}

// TestServerRejectsBadKeys: malformed, wrong-party and wrong-shape keys
// must be rejected.
func TestServerRejectsBadKeys(t *testing.T) {
	tab := fillTable(t, 64, 2)
	s0, err := NewServer(0, tab)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s0.Answer(nil); err == nil {
		t.Error("empty batch accepted")
	}
	if _, err := s0.Answer([][]byte{{1, 2, 3}}); err == nil {
		t.Error("garbage key accepted")
	}
	c, err := NewClient("aes128", tab.NumRows, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	k0, k1, err := c.Query(10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s0.Answer([][]byte{k1}); err == nil {
		t.Error("party-1 key accepted by party-0 server")
	}
	// Key for a differently-sized table.
	cBig, err := NewClient("aes128", 4096, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	kb0, _, err := cBig.Query(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s0.Answer([][]byte{kb0}); err == nil {
		t.Error("wrong-depth key accepted")
	}
	_ = k0
}

// TestClientValidation: bad constructor args and out-of-range queries fail.
func TestClientValidation(t *testing.T) {
	if _, err := NewClient("nope", 10, nil); err == nil {
		t.Error("unknown PRG accepted")
	}
	if _, err := NewClient("aes128", 0, nil); err == nil {
		t.Error("zero rows accepted")
	}
	c, err := NewClient("aes128", 10, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Query(10); err == nil {
		t.Error("out-of-range index accepted")
	}
	// A 10-row table takes a depth-4 tree.
	if want := dpf.KeyBytes(4); c.KeyBytes() != want {
		t.Errorf("KeyBytes() = %d, want %d for a depth-4 key over 10 rows", c.KeyBytes(), want)
	}
}

// TestServerValidation: constructor errors.
func TestServerValidation(t *testing.T) {
	tab := fillTable(t, 8, 1)
	if _, err := NewServer(2, tab); err == nil {
		t.Error("party 2 accepted")
	}
	if _, err := NewServer(0, nil); err == nil {
		t.Error("nil table accepted")
	}
	if _, err := NewServer(0, tab, WithStrategy(nil)); err == nil {
		t.Error("nil strategy accepted")
	}
}

// tweakedAES computes a function other than aes128 — aes128 of the seed
// with one bit flipped — under aes128's own name and construction.
type tweakedAES struct{ dpf.PRG }

func (p tweakedAES) Expand(s dpf.Seed) (left, right dpf.Seed, tL, tR uint8) {
	s[15] ^= 0x80
	return p.PRG.Expand(s)
}

func (p tweakedAES) ExpandBatch(seeds []dpf.Seed, left, right []dpf.Seed, tL, tR []uint8) {
	for i := range seeds {
		left[i], right[i], tL[i], tR[i] = p.Expand(seeds[i])
	}
}

// TestMismatchedPRG: in process, where no hello pins the PRF, a client and
// servers disagreeing on the PRF produce garbage (but no error) — the
// shares simply don't reconstruct. This pins that PRF choice is part of
// the protocol contract.
func TestMismatchedPRG(t *testing.T) {
	tab := fillTable(t, 64, 1)
	var servers [2]*Server
	for party := range servers {
		eng, err := engine.NewReplica(tab, engine.Config{Party: party, PRG: tweakedAES{dpf.NewAESPRG()}})
		if err != nil {
			t.Fatal(err)
		}
		servers[party] = &Server{eng: eng}
	}
	c, err := NewClient("aes128", tab.NumRows, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	ts := &TwoServer{Client: c, E0: InProcess{servers[0]}, E1: InProcess{servers[1]}}
	rows, _, err := ts.Fetch([]uint64{3})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][0] == tab.Row(3)[0] {
		t.Fatalf("servers computing another PRF reconstructed row 3 (%#x)", rows[0][0])
	}
}

// TestQuickAllStrategiesAgree: a random executor/index matrix; every
// executor configuration must produce identical reconstructions.
func TestQuickAllStrategiesAgree(t *testing.T) {
	tab := fillTable(t, 200, 3)
	strats := []strategy.Strategy{
		strategy.MemBoundTree{K: 8},
		strategy.MemBoundTree{K: 8},
		strategy.MemBoundTree{K: 128},
		strategy.MemBoundTree{K: 128},
	}
	f := func(idxRaw uint16, pick uint8) bool {
		idx := uint64(idxRaw) % uint64(tab.NumRows)
		ts := newPair(t, tab, WithStrategy(strats[int(pick)%len(strats)]))
		rows, _, err := ts.Fetch([]uint64{idx})
		if err != nil {
			return false
		}
		want := tab.Row(int(idx))
		for l := range want {
			if rows[0][l] != want[l] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestInsecureSeededStreamPinned pins the bytes InsecureSeeded emits over
// a fixed PCG for reads that end on and off a word boundary; pirload's
// keys and every seeded test's keys are drawn from this stream.
func TestInsecureSeededStreamPinned(t *testing.T) {
	r := InsecureSeeded(randv2.New(randv2.NewPCG(7, 7^0xda3e39cb94b95bdb)))
	h := sha256.New()
	for _, n := range []int{16, 1, 7, 8, 9, 15, 24, 3, 64, 266} {
		b := make([]byte, n)
		if m, err := r.Read(b); m != n || err != nil {
			t.Fatalf("Read(%d bytes) = %d, %v", n, m, err)
		}
		h.Write(b)
	}
	const want = "ec985ac0e13e5206a39ebe702cbb7b5debe8c85042f4fcce4095417ec9e3530c"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("stream digest %s, want %s", got, want)
	}
}
