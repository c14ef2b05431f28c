package shardnet

import (
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"

	"gpudpf/internal/dpf"
	"gpudpf/internal/engine"
	"gpudpf/internal/frame"
	"gpudpf/internal/serving"
)

// TestOpsByteIdentical pins one encoded request and one encoded response
// per op of both sets to the bytes the two protocols put on the wire
// before they merged (answer 0x01's response is the client protocol's, the
// one both clients now read). The hello is new, and so is the key batch of
// the 0x01 and 0x02 requests: since protocol 5 it is count, one width, and
// the keys back to back. Since protocol 6 the counters response (0x05)
// carries two words, the host counters, where it carried five. The shape
// query (0x04) is retired: the welcome states the shape.
func TestOpsByteIdentical(t *testing.T) {
	keys := [][]byte{{0xab, 0xcd, 0xef}, {0x01, 0x02, 0x03}}
	writes := []engine.RowWrite{{Row: 7, Vals: []uint32{1, 2}}}
	for _, tc := range []struct {
		name string
		got  []byte
		want string
	}{
		{"req 0x01", encode(t, nil, &request{op: opAnswer, keys: keys}), "010200000003000000abcdef010203"},
		{"req 0x02", encode(t, nil, &request{op: opAnswerRange, keys: keys, lo: 3, hi: 99}), "02030000000000000063000000000000000200000003000000abcdef010203"},
		{"req 0x05", encode(t, nil, &request{op: opCounters}), "05"},
		{"req 0x06", encode(t, nil, &request{op: opUpdateBatch, writes: writes}), "06010000000700000000000000020000000100000002000000"},
		{"req 0x07", encode(t, nil, &request{op: opEpoch}), "07"},
		{"req 0x08", encode(t, nil, &request{op: opPrepare, epoch: 41, writes: writes}), "082900000000000000010000000700000000000000020000000100000002000000"},
		{"req 0x09", encode(t, nil, &request{op: opCommit, epoch: 41}), "092900000000000000"},
		{"req 0x0a", encode(t, nil, &request{op: opAbort, epoch: 41}), "0a2900000000000000"},
		{"req 0x0b", encode(t, nil, &request{op: opPing}), "0b"},
		{"req 0x0c", encode(t, nil, &request{op: opSnapMeta}), "0c"},
		{"req 0x0d", encode(t, nil, &request{op: opSnapChunk, epoch: 41, off: 4096, max: 1 << 18}), "0d2900000000000000001000000000000000000400"},
		{"req 0x0e", encode(t, nil, &request{op: opStats}), "0e"},
		{"resp 0x01", appendAnswers(nil, [][]uint32{{1, 2}, {3, 4}}), "0100020000000200000001000000020000000300000004000000"},
		{"resp 0x02", appendRangeAnswers(nil, [][]uint32{{1, 2}, {3, 4}}, 2, 41), "0200020000000200000001290000000000000001000000020000000300000004000000"},
		{"resp 0x05", appendWords(nil, opCounters, 9, 10), "050009000000000000000a00000000000000"},
		{"resp 0x06", appendWords(nil, opUpdateBatch, 41), "06002900000000000000"},
		{"resp 0x07", appendWords(nil, opEpoch, 41), "07002900000000000000"},
		{"resp 0x08", appendWords(nil, opPrepare), "0800"},
		{"resp 0x09", appendWords(nil, opCommit), "0900"},
		{"resp 0x0a", appendWords(nil, opAbort), "0a00"},
		{"resp 0x0b", appendWords(nil, opPing), "0b00"},
		{"resp 0x0c", appendWords(nil, opSnapMeta, 6, 9, 0, 1024), "0c000600000000000000090000000000000000000000000000000004000000000000"},
		{"resp 0x0d", appendSnapChunk(nil, 41, 0, 1024, 4096, []uint32{1, 2, 3}), "0d00290000000000000000000000000000000004000000000000001000000000000003000000010000000200000003000000"},
		{"resp 0x0e", appendWords(nil, opStats, 1000, 7, 2), "0e00e80300000000000007000000000000000200000000000000"},
		{"resp error", appendErr(nil, opAnswerRange, errors.New("boom")), "020104000000626f6f6d"},
		{"resp shed", appendErr(nil, opAnswer, serving.ErrOverloaded), "01022100000073657276696e673a206f7665726c6f616465642c20726571756573742073686564"},
	} {
		if got := hex.EncodeToString(tc.got); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}

	// A batch of mixed widths has no encoding: the encoder refuses it by
	// name and writes nothing, and its protocol-4 framing is refused at
	// parse.
	mixed := [][]byte{{0xab, 0xcd, 0xef}, {0x01}}
	for _, op := range []byte{opAnswer, opAnswerRange} {
		got, err := appendRequest([]byte{0x55}, &request{op: op, keys: mixed, lo: 3, hi: 99})
		if !errors.Is(err, frame.ErrMixedWidth) || !bytes.Equal(got, []byte{0x55}) {
			t.Errorf("op %#x: mixed-width batch encoded to %x, %v; want ErrMixedWidth and nothing written", op, got, err)
		}
	}
	v4, _ := hex.DecodeString("010200000003000000abcdef0100000001")
	if _, err := parseRequest(v4, DefaultMaxBatch); err == nil || !strings.Contains(err.Error(), "mixed-width batch") {
		t.Errorf("protocol-4 mixed-width batch: %v, want a refusal naming the mixed widths", err)
	}
}

// otherAES is aes128 under its own name with another construction ID —
// what a build computing a different function as "aes128" looks like.
type otherAES struct{ dpf.PRG }

func (otherAES) Construction() uint32 { return dpf.ConstructionAES128 - 1 }

// foreignPRF is a PRF this build does not compute, chacha20 under its
// construction ID: what a peer built with another construction says in
// its hello. Its bodies are aes128's; only the name and ID are foreign.
type foreignPRF struct{ dpf.PRG }

func (foreignPRF) Name() string         { return "chacha20" }
func (foreignPRF) Construction() uint32 { return foreignConstruction }

const foreignConstruction = 0xc4a_0001

// TestHelloRefusesConstruction: a server whose PRF has the client's name but
// not its construction is refused at dial, with both IDs named — keys of
// one would evaluate to garbage shares on the other.
func TestHelloRefusesConstruction(t *testing.T) {
	tab := buildTable(t, 64, 2, 21)
	rep := newReplica(t, tab, engine.Config{Party: 0, PRG: otherAES{dpf.NewAESPRG()}})
	_, addr := startNode(t, rep, ServerConfig{})
	_, err := Dial(addr, Options{PRG: "aes128", Party: 0})
	if err == nil {
		t.Fatal("a different construction under the same name was accepted")
	}
	for _, want := range []string{"prg=aes128", "construction 0xae50002", "construction 0xae50001"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("refusal %q does not name %q", err, want)
		}
	}
}

// TestHelloRefusesProtocol4: a peer from protocol 4 — the one key-batch
// framing and key format before this build's — is refused at its hello with
// both versions named, before it can send a batch this build would misread.
func TestHelloRefusesProtocol4(t *testing.T) {
	tab := buildTable(t, 64, 2, 24)
	rep := newReplica(t, tab, engine.Config{Party: 0})
	_, addr := startNode(t, rep, ServerConfig{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_, err = rawHello(t, conn, hello{Version: 4, PRG: rep.PRGName(), Construction: rep.PRG().Construction(),
		Early: rep.EarlyBits(), Party: 0, Rows: 64})
	if err == nil {
		t.Fatal("a protocol-4 hello was welcomed")
	}
	for _, want := range []string{"version 4", fmt.Sprintf("version %d", ProtocolVersion)} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("refusal %q does not name %q", err, want)
		}
	}
}

// v2Key marshals a fresh party-0 key for row of a bits-deep table in key
// wire v2, the format before v3.
func v2Key(t *testing.T, bits int, row uint64) []byte {
	t.Helper()
	k0, _, err := dpf.Gen(dpf.NewAESPRG(), row, bits, []uint32{1}, rand.New(rand.NewSource(25)))
	if err != nil {
		t.Fatal(err)
	}
	k0.Wire = 2
	raw, err := k0.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestNodeRefusesKeyWireV2: a shard node serves key wire v3 only. A v2 key
// — here alone in its request, whose bytes protocol 4 and 5 frame alike —
// is refused with both wire versions named, on the member op and on the
// client op, and the connection goes on serving v3 keys.
func TestNodeRefusesKeyWireV2(t *testing.T) {
	tab := buildTable(t, 64, 2, 26)
	rep := newReplica(t, tab, engine.Config{Party: 0})
	_, addr := startNode(t, rep, ServerConfig{})
	c, err := Dial(addr, Options{PRG: rep.PRGName(), Early: rep.EarlyBits(), Party: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	old := [][]byte{v2Key(t, tab.Bits(), 5)}
	_, _, _, rangeErr := c.AnswerRangeEpoch(context.Background(), old, 0, 64)
	_, answerErr := c.Answer(context.Background(), old)
	for _, err := range []error{rangeErr, answerErr} {
		if err == nil {
			t.Fatal("node answered a wire-v2 key")
		}
		for _, want := range []string{"key wire v2", "serves key wire v3"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("refusal %q does not name %q", err, want)
			}
		}
	}
	keys, _ := genKeys(t, dpf.NewAESPRG(), tab.Bits(), []uint64{5}, 27)
	if _, _, _, err := c.AnswerRangeEpoch(context.Background(), keys, 0, 64); err != nil {
		t.Fatalf("v3 key after the refusal: %v", err)
	}
}

// TestMemberOpsNeedHello: a node answers the client ops on a connection
// that never said hello, and refuses a member op there by name.
func TestMemberOpsNeedHello(t *testing.T) {
	tab := buildTable(t, 64, 2, 22)
	rep := newReplica(t, tab, engine.Config{Party: 0})
	_, addr := startNode(t, rep, ServerConfig{})
	c, err := DialClient(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	keys, _ := genKeys(t, dpf.NewAESPRG(), tab.Bits(), []uint64{3, 60}, 23)
	got, err := c.Answer(context.Background(), keys)
	if err != nil {
		t.Fatal(err)
	}
	want, err := rep.Answer(context.Background(), keys)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameShares(got, want); err != nil {
		t.Fatalf("client-op answer diverges: %v", err)
	}

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := frame.Write(conn, append(frame.Begin(nil), opPing), DefaultMaxFrame); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var buf []byte
	body, err := frame.Read(conn, DefaultMaxFrame, &buf)
	if err != nil {
		t.Fatal(err)
	}
	var r frame.Reader
	r.Reset(body)
	if _, _, err := frame.ResponseHeader(&r, opPing); !errors.Is(err, ErrProtocol) || !strings.Contains(err.Error(), "needs a hello") {
		t.Fatalf("ping without a hello: %v, want the named refusal", err)
	}
}

// TestDialClientHasNoRPCTimeout: pir.Dial's client, pinned or not, puts no
// deadline on a request unless its pin sets one — a slow answer queued
// behind a deep batcher is not a transport error that would end it — while
// a node's client keeps DefaultRPCTimeout.
func TestDialClientHasNoRPCTimeout(t *testing.T) {
	tab := buildTable(t, 64, 2, 22)
	_, addr := startNode(t, newReplica(t, tab, engine.Config{Party: 0}), ServerConfig{})
	for _, tc := range []struct {
		dial func() (*Client, error)
		want time.Duration
	}{
		{func() (*Client, error) { return DialClient(addr, nil) }, 0},
		{func() (*Client, error) { return DialClient(addr, &Options{PRG: "aes128", Rows: 64}) }, 0},
		{func() (*Client, error) { return DialClient(addr, &Options{RPCTimeout: time.Second}) }, time.Second},
		{func() (*Client, error) { return Dial(addr, Options{}) }, DefaultRPCTimeout},
	} {
		c, err := tc.dial()
		if err != nil {
			t.Fatal(err)
		}
		c.Close()
		if c.timeout != tc.want {
			t.Errorf("single=%v pin=%v: RPC timeout %v, want %v", c.single, c.pin != nil, c.timeout, tc.want)
		}
	}
}
