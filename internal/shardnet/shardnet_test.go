package shardnet

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gpudpf/internal/dpf"
	"gpudpf/internal/engine"
	"gpudpf/internal/frame"
	"gpudpf/internal/strategy"
)

// buildTable fills a table deterministically from seed.
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

// shardTable copies only rows [lo, hi) of tab into a fresh zeroed table of
// the same shape — what a real shard node holds: its own rows, garbage
// (here zeros) elsewhere.
func shardTable(t testing.TB, tab *strategy.Table, lo, hi int) *strategy.Table {
	t.Helper()
	sub, err := strategy.NewTable(tab.NumRows, tab.Lanes)
	if err != nil {
		t.Fatal(err)
	}
	copy(sub.Data[lo*tab.Lanes:hi*tab.Lanes], tab.Data[lo*tab.Lanes:hi*tab.Lanes])
	return sub
}

func newReplica(t testing.TB, tab *strategy.Table, cfg engine.Config) *engine.Replica {
	t.Helper()
	rep, err := engine.NewReplica(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// startNode serves be on a loopback listener; the server and listener are
// torn down with the test.
func startNode(t testing.TB, be engine.Member, cfg ServerConfig) (*Server, string) {
	t.Helper()
	srv, err := NewServer(be, cfg)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	return srv, l.Addr().String()
}

// encode is appendRequest for a request the test knows is well formed.
func encode(t testing.TB, dst []byte, req *request) []byte {
	t.Helper()
	out, err := appendRequest(dst, req)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// rawHello says hello on a bare connection and returns the welcome, or the
// server's refusal as an error.
func rawHello(t testing.TB, conn net.Conn, h hello) (hello, error) {
	t.Helper()
	if err := frame.Write(conn, encode(t, frame.Begin(nil), &request{op: opHello, hello: h}), DefaultMaxFrame); err != nil {
		t.Fatal(err)
	}
	var buf []byte
	body, err := frame.Read(conn, DefaultMaxFrame, &buf)
	if err != nil {
		t.Fatal(err)
	}
	r := new(frame.Reader)
	r.Reset(body)
	status, msg, err := frame.ResponseHeader(r, opHello)
	if err != nil {
		t.Fatal(err)
	}
	if status != frame.StatusOK {
		return hello{}, errors.New(msg)
	}
	return parseHello(r)
}

// genKeys returns marshaled keys for both parties at the replica-default
// early-termination depth.
func genKeys(t testing.TB, prg dpf.PRG, bits int, indices []uint64, seed int64) (k0s, k1s [][]byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	early := dpf.DefaultEarly(bits, 1)
	for _, idx := range indices {
		key0, key1, err := dpf.GenEarly(prg, idx, bits, []uint32{1}, early, rng)
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

func sameShares(a, b [][]uint32) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d vs %d answers", len(a), len(b))
	}
	for q := range a {
		if len(a[q]) != len(b[q]) {
			return fmt.Errorf("answer %d: %d vs %d lanes", q, len(a[q]), len(b[q]))
		}
		for l := range a[q] {
			if a[q][l] != b[q][l] {
				return fmt.Errorf("answer %d lane %d: %#x vs %#x", q, l, a[q][l], b[q][l])
			}
		}
	}
	return nil
}

// TestClientServerRoundTrip drives every RPC against a replica node over
// real TCP: Answer and AnswerRange must be bit-identical to the local
// replica, Update must be visible to subsequent answers, and Shape /
// Counters must report the node's state.
func TestClientServerRoundTrip(t *testing.T) {
	const rows, lanes = 300, 4
	tab := buildTable(t, rows, lanes, 1)
	rep := newReplica(t, tab, engine.Config{Party: 0})
	_, addr := startNode(t, rep, ServerConfig{})

	c, err := Dial(addr, Options{PRG: "aes128", Party: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if r, l := c.Shape(); r != rows || l != lanes {
		t.Fatalf("handshake shape %d×%d, want %d×%d", r, l, rows, lanes)
	}
	if got, want := c.EarlyBits(), rep.EarlyBits(); got != want {
		t.Fatalf("handshake early %d, want %d", got, want)
	}
	if lo, hi := c.HeldRange(); lo != 0 || hi != rows {
		t.Fatalf("held range [%d,%d), want [0,%d)", lo, hi, rows)
	}

	// A local replica over the same content is the bit-exactness reference.
	ref := newReplica(t, buildTable(t, rows, lanes, 1), engine.Config{Party: 0})
	keys, _ := genKeys(t, dpf.NewAESPRG(), tab.Bits(), []uint64{0, 13, 255, 299}, 2)

	remote, err := c.Answer(context.Background(), keys)
	if err != nil {
		t.Fatal(err)
	}
	local, err := ref.Answer(context.Background(), keys)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameShares(remote, local); err != nil {
		t.Fatalf("remote Answer diverges: %v", err)
	}

	// Partial ranges must sum to the full answer.
	partA, err := answerRange(context.Background(), c, keys, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	partB, err := answerRange(context.Background(), c, keys, 100, rows)
	if err != nil {
		t.Fatal(err)
	}
	for q := range partA {
		for l := range partA[q] {
			partA[q][l] += partB[q][l]
		}
	}
	if err := sameShares(partA, local); err != nil {
		t.Fatalf("remote partials do not sum to the answer: %v", err)
	}

	// Update over the wire is visible to the next answer.
	newRow := []uint32{7, 8, 9, 10}
	if err := update1(c, 13, newRow); err != nil {
		t.Fatal(err)
	}
	if err := update1(ref, 13, newRow); err != nil {
		t.Fatal(err)
	}
	remote, err = c.Answer(context.Background(), keys)
	if err != nil {
		t.Fatal(err)
	}
	local, err = ref.Answer(context.Background(), keys)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameShares(remote, local); err != nil {
		t.Fatalf("post-update remote Answer diverges: %v", err)
	}

	if stats := c.Counters(); stats.PRFBlocks == 0 {
		t.Fatal("node counters report no PRF work after answering")
	}

	// Concurrent RPCs must be safe (the pool grows as needed).
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				if _, err := c.Answer(context.Background(), keys); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestMixedClusterMatchesReplica is the acceptance sweep: a 4-shard
// cluster — shards 0 and 2 in-process replicas, shards 1 and 3 real TCP
// shard nodes holding ONLY their own rows — must answer every
// executor × PRF batch bit-identically to a single-process replica.
func TestMixedClusterMatchesReplica(t *testing.T) {
	const rows, lanes, shards = 256, 4, 4
	strategies := []strategy.MemBoundTree{
		{K: 8},
		{K: 128},
	}
	tab := buildTable(t, rows, lanes, 3)
	bounds := make([]int, shards+1)
	for i := 0; i < shards; i++ {
		bounds[i], bounds[i+1] = engine.ShardRange(rows, i, shards)
	}
	prg := dpf.NewAESPRG()
	for _, strat := range strategies {
		t.Run(fmt.Sprintf("%s/K=%d", prg.Name(), strat.K), func(t *testing.T) {
			cfg := engine.Config{Party: 0, Strategy: strat}
			ref := newReplica(t, tab, cfg)

			members := make([]engine.ClusterShard, shards)
			for i := 0; i < shards; i++ {
				if i%2 == 0 {
					members[i] = engine.ClusterShard{Backend: newReplica(t, tab, cfg)}
					continue
				}
				// A real remote node holding only its shard's rows.
				nodeTab := shardTable(t, tab, bounds[i], bounds[i+1])
				_, addr := startNode(t, newReplica(t, nodeTab, cfg), ServerConfig{RowLo: bounds[i], RowHi: bounds[i+1]})
				cl, err := Dial(addr, Options{PRG: dpf.PRGName, Party: 0})
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
			keys, _ := genKeys(t, prg, tab.Bits(), []uint64{0, 63, 64, 128, 200, 255}, 4)
			want, err := ref.Answer(context.Background(), keys)
			if err != nil {
				t.Fatal(err)
			}
			got, err := cluster.Answer(context.Background(), keys)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameShares(got, want); err != nil {
				t.Fatalf("cluster diverges from single-process replica: %v", err)
			}
		})
	}
}

// TestHandshakePinning: every pinned fact mismatch is rejected with both
// sides' values named.
func TestHandshakePinning(t *testing.T) {
	tab := buildTable(t, 128, 2, 5)
	rep := newReplica(t, tab, engine.Config{Party: 1})
	_, addr := startNode(t, rep, ServerConfig{})

	cases := []struct {
		name string
		opts Options
		want []string
	}{
		{"early", Options{PRG: "aes128", Early: 1, Party: 1},
			[]string{"depth 1", fmt.Sprintf("depth %d", rep.EarlyBits())}},
		{"party", Options{PRG: "aes128", Party: 0}, []string{"party-0", "party 1"}},
		{"rows", Options{PRG: "aes128", Party: 1, Rows: 64}, []string{"64-row", "128 rows"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Dial(addr, tc.opts)
			if err == nil {
				t.Fatal("mismatched handshake accepted")
			}
			for _, want := range tc.want {
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("handshake rejection %q does not name %q", err, want)
				}
			}
		})
	}

	// A client that pins only the party learns the rest from the welcome.
	c, err := Dial(addr, Options{Party: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.PRGName() != "aes128" || c.Party() != 1 || c.EarlyBits() != rep.EarlyBits() {
		t.Fatalf("welcome config prg=%s party=%d early=%d", c.PRGName(), c.Party(), c.EarlyBits())
	}

	// A peer built with another PRF, or with another function under this
	// one's name, says so in its hello (this build cannot pin either), and
	// a client from a different protocol era states its version: each is
	// refused with both values named.
	refused := func(t *testing.T, claim hello, wants ...string) {
		t.Helper()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := rawHello(t, conn, claim); err == nil {
			t.Fatalf("hello %+v accepted", claim)
		} else {
			for _, want := range wants {
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("hello rejection %q does not name %q", err, want)
				}
			}
		}
	}
	t.Run("prg", func(t *testing.T) {
		refused(t, hello{Version: ProtocolVersion, PRG: "chacha20", Construction: foreignConstruction, Party: 1}, "chacha20", "aes128")
		refused(t, hello{Version: ProtocolVersion, PRG: "aes128", Construction: dpf.ConstructionAES128 - 1, Party: 1},
			"construction 0xae50001", "construction 0xae50002")
	})
	refused(t, hello{Version: 99, Party: 1}, "version 99", fmt.Sprintf("version %d", ProtocolVersion))
}

// TestHandshakeNoAdoption: a node enforces ITS member's configuration
// whatever wraps the replica — there is no member without one, so no path
// on which the node adopts the PRF / depth / party a client claims.
func TestHandshakeNoAdoption(t *testing.T) {
	tab := buildTable(t, 128, 2, 5)
	rep := newReplica(t, tab, engine.Config{Party: 1})
	_, addr := startNode(t, &slowBackend{Replica: rep}, ServerConfig{})
	for _, tc := range []struct {
		opts Options
		want string
	}{
		{Options{PRG: "aes128", Early: 1, Party: 1}, fmt.Sprintf("this server serves depth %d", rep.EarlyBits())},
		{Options{PRG: "aes128", Party: 0}, "this server computes party 1"},
	} {
		c, err := Dial(addr, tc.opts)
		if err == nil {
			c.Close()
			t.Fatalf("node adopted the client's claim %+v (welcome says prg=%s early=%d party=%d)", tc.opts, c.PRGName(), c.EarlyBits(), c.Party())
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("handshake rejection %q does not say %q", err, tc.want)
		}
	}
	// This build cannot pin another PRF, so a peer built with one claims
	// it in a raw hello.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	claim := hello{Version: ProtocolVersion, PRG: "chacha20", Construction: foreignConstruction, Party: 1}
	if w, err := rawHello(t, conn, claim); err == nil {
		t.Fatalf("node adopted the claim %+v (welcome says prg=%s)", claim, w.PRG)
	} else if !strings.Contains(err.Error(), "this server serves prg=aes128") {
		t.Fatalf("handshake rejection %q does not say %q", err, "this server serves prg=aes128")
	}
}

// TestRetiredUpdateOpRefused: wire op 0x03 (the single-row update) is gone;
// a peer that still sends it gets the named unknown-opcode refusal and a
// hang-up, not a silent write.
func TestRetiredUpdateOpRefused(t *testing.T) {
	rep := refusesRetiredOp(t, retiredUpdateRequest)
	if epoch, _ := rep.Epoch(context.Background()); epoch != 0 {
		t.Fatalf("retired update op moved the table to epoch %d", epoch)
	}
}

// TestRetiredShapeOpRefused: wire op 0x04 (the shape query) is gone, as the
// welcome states the shape; a peer that still sends it gets the same
// refusal and hang-up.
func TestRetiredShapeOpRefused(t *testing.T) {
	refusesRetiredOp(t, retiredShapeRequest)
}

// refusesRetiredOp sends req, a request of a retired op, to a node after a
// hello and checks the node answers with the unknown-opcode refusal naming
// that op and then hangs up. It returns the node's replica.
func refusesRetiredOp(t *testing.T, req []byte) *engine.Replica {
	t.Helper()
	tab := buildTable(t, 64, 2, 6)
	rep := newReplica(t, tab, engine.Config{Party: 0})
	_, addr := startNode(t, rep, ServerConfig{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := rawHello(t, conn, hello{Version: ProtocolVersion}); err != nil {
		t.Fatalf("hello refused: %v", err)
	}
	if err := frame.Write(conn, append(frame.Begin(nil), req...), DefaultMaxFrame); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var buf []byte
	body, err := frame.Read(conn, DefaultMaxFrame, &buf)
	if err != nil {
		t.Fatalf("reading refusal frame: %v", err)
	}
	if want := fmt.Sprintf("unknown opcode %#x", req[0]); body[0] != frame.OpErr || body[1] != frame.StatusErr || !strings.Contains(string(body[2:]), want) {
		t.Fatalf("refusal frame op=%#x status=%d %q, want %q", body[0], body[1], body[2:], want)
	}
	if _, err := frame.Read(conn, DefaultMaxFrame, &buf); err == nil {
		t.Fatal("connection survived a retired opcode")
	}
	return rep
}

// TestBatchCap: a request declaring more keys than the node's batch cap is
// refused before any backend allocation fan-out — the frame cap bounds
// bytes, this bounds the per-key amplification.
func TestBatchCap(t *testing.T) {
	tab := buildTable(t, 64, 2, 15)
	rep := newReplica(t, tab, engine.Config{Party: 0})
	_, addr := startNode(t, rep, ServerConfig{MaxBatch: 3})
	c, err := Dial(addr, Options{PRG: "aes128", Party: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	keys, _ := genKeys(t, dpf.NewAESPRG(), tab.Bits(), []uint64{0, 1, 2, 3}, 16)
	if _, err := c.Answer(context.Background(), keys); err == nil {
		t.Fatal("over-cap batch served")
	} else if !strings.Contains(err.Error(), "3-key cap") {
		t.Fatalf("batch-cap rejection %q does not name the cap", err)
	}
	if _, err := c.Answer(context.Background(), keys[:3]); err != nil {
		t.Fatalf("at-cap batch refused: %v", err)
	}
}

// TestHeldRangeEnforced: a shard node refuses to answer for rows it does
// not hold — whole-table Answer, out-of-slice AnswerRange, and misrouted
// Update all fail loudly instead of contributing zero-filled garbage
// shares.
func TestHeldRangeEnforced(t *testing.T) {
	const rows, lanes = 256, 4
	tab := buildTable(t, rows, lanes, 13)
	nodeTab := shardTable(t, tab, 64, 128)
	rep := newReplica(t, nodeTab, engine.Config{Party: 0})
	_, addr := startNode(t, rep, ServerConfig{RowLo: 64, RowHi: 128})
	c, err := Dial(addr, Options{PRG: "aes128", Party: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	keys, _ := genKeys(t, dpf.NewAESPRG(), tab.Bits(), []uint64{70}, 14)

	if _, err := c.Answer(context.Background(), keys); err == nil {
		t.Fatal("whole-table Answer served by a partial node")
	} else if !strings.Contains(err.Error(), "holds only rows [64,128)") {
		t.Fatalf("Answer rejection %q does not name the held range", err)
	}
	if _, err := answerRange(context.Background(), c, keys, 0, 128); err == nil {
		t.Fatal("out-of-slice AnswerRange served")
	} else if !strings.Contains(err.Error(), "outside the rows [64,128)") {
		t.Fatalf("AnswerRange rejection %q does not name the held range", err)
	}
	if err := update1(c, 5, []uint32{1, 2, 3, 4}); err == nil {
		t.Fatal("misrouted Update accepted")
	} else if !strings.Contains(err.Error(), "outside the rows [64,128)") {
		t.Fatalf("Update rejection %q does not name the held range", err)
	}

	// Requests inside the slice still work, bit-identically to a full
	// replica's partials for the same range.
	got, err := answerRange(context.Background(), c, keys, 64, 128)
	if err != nil {
		t.Fatal(err)
	}
	ref := newReplica(t, tab, engine.Config{Party: 0})
	want, err := answerRange(context.Background(), ref, keys, 64, 128)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameShares(got, want); err != nil {
		t.Fatalf("in-slice partials diverge: %v", err)
	}
	if err := update1(c, 70, []uint32{1, 2, 3, 4}); err != nil {
		t.Fatalf("in-slice update refused: %v", err)
	}
}

// TestHandshakeTimeout: a peer that connects and never speaks is cut off
// once the handshake deadline passes — it cannot hold a goroutine and
// file descriptor forever.
func TestHandshakeTimeout(t *testing.T) {
	tab := buildTable(t, 64, 2, 10)
	rep := newReplica(t, tab, engine.Config{Party: 0})
	_, addr := startNode(t, rep, ServerConfig{ReadTimeout: 150 * time.Millisecond})

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Send nothing; the node must hang up on its own.
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	start := time.Now()
	var one [1]byte
	if _, err := conn.Read(one[:]); err == nil {
		t.Fatal("silent connection got data instead of a hang-up")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("silent connection held open for %v", elapsed)
	}

	// A normal client on the same node still handshakes fine.
	c, err := Dial(addr, Options{Party: 0})
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
}

// TestOversizedResponseNamed: a legitimate request whose ANSWER exceeds
// the frame cap (answers scale with lanes, requests with key bytes) must
// come back as a named cap error, not an opaque EOF.
func TestOversizedResponseNamed(t *testing.T) {
	// 64 rows × 200 lanes: a single-key request is ~360 bytes (fits a
	// 512-byte cap), its answer is 200·4+10 bytes (does not).
	tab := buildTable(t, 64, 200, 11)
	rep := newReplica(t, tab, engine.Config{Party: 0})
	_, addr := startNode(t, rep, ServerConfig{MaxFrame: 512})
	c, err := Dial(addr, Options{Party: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	keys, _ := genKeys(t, dpf.NewAESPRG(), tab.Bits(), []uint64{5}, 12)
	_, err = c.Answer(context.Background(), keys)
	if err == nil {
		t.Fatal("oversized answer delivered through a 512-byte cap")
	}
	for _, want := range []string{"frame cap", "narrow the batch"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not carry %q", err, want)
		}
	}
}

// TestFrameCap: a frame over the node's cap is refused with the named
// error before the node reads (or allocates) the payload, and the
// connection is closed.
func TestFrameCap(t *testing.T) {
	tab := buildTable(t, 64, 2, 6)
	rep := newReplica(t, tab, engine.Config{Party: 0})
	_, addr := startNode(t, rep, ServerConfig{MaxFrame: 256})

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := rawHello(t, conn, hello{Version: ProtocolVersion}); err != nil {
		t.Fatalf("hello refused: %v", err)
	}
	// Declare a 1 MiB frame on a 256-byte-cap connection; send only the
	// header — the node must refuse without waiting for a payload.
	var hdr [4]byte
	hdr[0], hdr[1], hdr[2] = 0x00, 0x00, 0x10
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var buf []byte
	body, err := frame.Read(conn, DefaultMaxFrame, &buf)
	if err != nil {
		t.Fatalf("reading refusal frame: %v", err)
	}
	if body[0] != frame.OpErr || body[1] != frame.StatusErr {
		t.Fatalf("refusal frame op=%#x status=%d", body[0], body[1])
	}
	if !strings.Contains(string(body), "size cap") {
		t.Fatalf("refusal %q does not name the cap", string(body[2:]))
	}
	// Half-close, so the node draining what it refused sees the end of it.
	conn.(*net.TCPConn).CloseWrite()
	if _, err := frame.Read(conn, DefaultMaxFrame, &buf); err == nil {
		t.Fatal("connection survived an oversized frame")
	}
}

// TestEpochRPCsRoundTrip drives the protocol-v2 update path against a
// real node: epoch queries, atomic UpdateBatch, the prepare/commit
// handshake, abort-as-rollback, and held-range enforcement for writes.
func TestEpochRPCsRoundTrip(t *testing.T) {
	const rows, lanes = 128, 4
	tab := buildTable(t, rows, lanes, 17)
	rep := newReplica(t, tab, engine.Config{Party: 0})
	_, addr := startNode(t, rep, ServerConfig{})
	c, err := Dial(addr, Options{PRG: "aes128", Party: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if epoch := c.w.Epoch; epoch != 0 {
		t.Fatalf("welcome states epoch %d, want 0", epoch)
	}
	if epoch, err := c.Epoch(context.Background()); err != nil || epoch != 0 {
		t.Fatalf("Epoch RPC: %d, %v", epoch, err)
	}

	// Atomic batch over the wire; a local replica mirrors it as reference.
	ref := newReplica(t, buildTable(t, rows, lanes, 17), engine.Config{Party: 0})
	writes := []engine.RowWrite{
		{Row: 3, Vals: []uint32{1, 2, 3, 4}},
		{Row: 90, Vals: []uint32{5, 6, 7, 8}},
	}
	epoch, err := c.UpdateBatch(context.Background(), writes)
	if err != nil || epoch != 1 {
		t.Fatalf("UpdateBatch: epoch %d, %v", epoch, err)
	}
	if _, err := ref.UpdateBatch(context.Background(), writes); err != nil {
		t.Fatal(err)
	}
	keys, _ := genKeys(t, dpf.NewAESPRG(), tab.Bits(), []uint64{3, 90, 60}, 18)
	remote, err := c.Answer(context.Background(), keys)
	if err != nil {
		t.Fatal(err)
	}
	local, err := ref.Answer(context.Background(), keys)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameShares(remote, local); err != nil {
		t.Fatalf("post-UpdateBatch answers diverge: %v", err)
	}
	// AnswerRangeEpoch reports the epoch the shares were computed at.
	if _, e, ok, err := c.AnswerRangeEpoch(context.Background(), keys, 0, rows); err != nil || !ok || e != 1 {
		t.Fatalf("AnswerRangeEpoch: epoch %d ok=%v err=%v, want 1/true", e, ok, err)
	}

	// Two-phase: prepare is invisible, commit lands it.
	w2 := []engine.RowWrite{{Row: 3, Vals: []uint32{9, 9, 9, 9}}}
	if err := c.PrepareUpdate(context.Background(), 2, w2); err != nil {
		t.Fatal(err)
	}
	if _, e, _, err := c.AnswerRangeEpoch(context.Background(), keys, 0, rows); err != nil || e != 1 {
		t.Fatalf("prepared epoch visible before commit: epoch %d err=%v", e, err)
	}
	if err := c.CommitUpdate(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	// Abort after commit rolls back to the pre-commit view.
	if err := c.AbortUpdate(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	remote, err = c.Answer(context.Background(), keys)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameShares(remote, local); err != nil {
		t.Fatalf("rolled-back answers diverge from pre-commit state: %v", err)
	}
	// The burned epoch is skipped: the next update lands above it.
	if epoch, err := c.UpdateBatch(context.Background(), w2); err != nil || epoch != 3 {
		t.Fatalf("post-rollback UpdateBatch: epoch %d, %v (want 3: epoch 2 is burned)", epoch, err)
	}
}

// TestUpdateBatchHeldRangeEnforced: a shard node refuses batch writes (and
// prepares) outside the rows it holds.
func TestUpdateBatchHeldRangeEnforced(t *testing.T) {
	const rows, lanes = 256, 2
	tab := buildTable(t, rows, lanes, 19)
	nodeTab := shardTable(t, tab, 64, 128)
	rep := newReplica(t, nodeTab, engine.Config{Party: 0})
	_, addr := startNode(t, rep, ServerConfig{RowLo: 64, RowHi: 128})
	c, err := Dial(addr, Options{PRG: "aes128", Party: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	bad := []engine.RowWrite{{Row: 70, Vals: []uint32{1, 2}}, {Row: 5, Vals: []uint32{3, 4}}}
	if _, err := c.UpdateBatch(context.Background(), bad); err == nil {
		t.Fatal("misrouted batch write accepted")
	} else if !strings.Contains(err.Error(), "outside the rows [64,128)") {
		t.Fatalf("batch rejection %q does not name the held range", err)
	}
	if err := c.PrepareUpdate(context.Background(), 1, bad); err == nil {
		t.Fatal("misrouted prepare accepted")
	} else if !strings.Contains(err.Error(), "outside the rows [64,128)") {
		t.Fatalf("prepare rejection %q does not name the held range", err)
	}
	// In-range writes work, and the epoch advances.
	good := []engine.RowWrite{{Row: 70, Vals: []uint32{1, 2}}}
	if epoch, err := c.UpdateBatch(context.Background(), good); err != nil || epoch != 1 {
		t.Fatalf("in-range batch: epoch %d, %v", epoch, err)
	}
}

// countingConn counts the Write calls and the data-bearing Read calls a
// node makes on one connection — what a TLS or metering wrapper would turn
// into records or syscalls.
type countingConn struct {
	net.Conn
	reads, writes *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.reads.Add(1)
	}
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

type countingListener struct {
	net.Listener
	reads, writes atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: conn, reads: &l.reads, writes: &l.writes}, nil
}

// TestOneWritePerFrame: behind a wrapper that is not a bare *net.TCPConn a
// node still sends every frame — welcome and responses — as one Write, and
// reads a frame's header and body together; the bytes of a frame are the
// length prefix followed by the body the encoder always produced.
func TestOneWritePerFrame(t *testing.T) {
	tab := buildTable(t, 64, 2, 6)
	rep := newReplica(t, tab, engine.Config{Party: 0})
	srv, err := NewServer(rep, ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l := &countingListener{Listener: inner}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	c, err := Dial(inner.Addr().String(), Options{Party: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	k0s, _ := genKeys(t, dpf.NewAESPRG(), tab.Bits(), []uint64{3, 40}, 7)
	const pings = 5
	for i := 0; i < pings; i++ {
		if err := c.Ping(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := answerRange(context.Background(), c, k0s, 0, 64); err != nil {
		t.Fatal(err)
	}
	const frames = 1 + pings + 1 // hello, pings, answer — each way
	if w := l.writes.Load(); w != frames {
		t.Errorf("node made %d Write calls for %d frames", w, frames)
	}
	if r := l.reads.Load(); r >= 2*frames {
		t.Errorf("node made %d Read calls for %d frames; header and body should normally share one", r, frames)
	}

	req := &request{op: opAnswerRange, keys: k0s, lo: 0, hi: 64}
	var wire bytes.Buffer
	if err := frame.Write(&wire, encode(t, frame.Begin(nil), req), DefaultMaxFrame); err != nil {
		t.Fatal(err)
	}
	body := encode(t, nil, req)
	if want := append(binary.LittleEndian.AppendUint32(nil, uint32(len(body))), body...); !bytes.Equal(wire.Bytes(), want) {
		t.Errorf("frame bytes differ from length prefix + body")
	}
}
