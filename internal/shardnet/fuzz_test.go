package shardnet

import (
	"bytes"
	"testing"

	"gpudpf/internal/engine"
	"gpudpf/internal/frame"
	"gpudpf/internal/gpu"
)

// retiredUpdateRequest is a well-formed request of retired op 0x03 (the
// single-row update: row 12, three lanes) — a seed of the refusal corpus.
var retiredUpdateRequest = []byte{0x03, 12, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0}

// FuzzParseRequest throws arbitrary frame bodies at the server's request
// parser: it must never panic and never accept a frame that does not
// re-encode to itself (the codec is canonical). Protocol v2 ops — the
// epoch-versioned update path — and v3's (Ping, SnapshotMeta,
// SnapshotChunk) are seeded alongside v1's.
func FuzzParseRequest(f *testing.F) {
	// Seed with one well-formed frame per opcode, then frames to refuse.
	key := bytes.Repeat([]byte{0xab}, 37)
	writes := []engine.RowWrite{{Row: 7, Vals: []uint32{1, 2, 3}}, {Row: 9, Vals: []uint32{4}}}
	f.Add(appendRequest(nil, &rpcRequest{op: opAnswer, keys: [][]byte{key, key[:5]}}))
	f.Add(appendRequest(nil, &rpcRequest{op: opAnswerRange, keys: [][]byte{key}, lo: 3, hi: 999}))
	f.Add(appendRequest(nil, &rpcRequest{op: opShape}))
	f.Add(appendRequest(nil, &rpcRequest{op: opCounters}))
	f.Add(appendRequest(nil, &rpcRequest{op: opUpdateBatch, writes: writes}))
	f.Add(appendRequest(nil, &rpcRequest{op: opEpoch}))
	f.Add(appendRequest(nil, &rpcRequest{op: opPrepare, epoch: 41, writes: writes}))
	f.Add(appendRequest(nil, &rpcRequest{op: opCommit, epoch: 41}))
	f.Add(appendRequest(nil, &rpcRequest{op: opAbort, epoch: 41}))
	f.Add(appendRequest(nil, &rpcRequest{op: opPing}))
	f.Add(appendRequest(nil, &rpcRequest{op: opSnapMeta}))
	f.Add(appendRequest(nil, &rpcRequest{op: opSnapChunk, epoch: 41, off: 4096, max: 1 << 18}))
	f.Add([]byte{opAnswer, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{opUpdateBatch, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{opSnapChunk, 0xff, 0xff, 0xff})
	f.Add(retiredUpdateRequest)
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := parseRequest(body, DefaultMaxBatch)
		if err != nil {
			return
		}
		if got := appendRequest(nil, req); !bytes.Equal(got, body) {
			t.Fatalf("accepted request does not re-encode canonically:\n in  %x\n out %x", body, got)
		}
	})
}

// FuzzParseResponses covers the client-side decoders the node's bytes feed
// into; a hostile or corrupt node must not be able to panic a front.
func FuzzParseResponses(f *testing.F) {
	f.Add(appendAnswers(nil, opAnswer, [][]uint32{{1, 2}, {3, 4}}, 2, 0, false), uint8(opAnswer), 2)
	f.Add(appendAnswers(nil, opAnswerRange, [][]uint32{{1, 2}}, 2, 77, true), uint8(opAnswerRange), 1)
	f.Add(appendErrResponse(nil, opAnswerRange, "engine: shard failed"), uint8(opAnswerRange), 1)
	f.Add(appendShape(nil, 1024, 32), uint8(opShape), 0)
	f.Add(appendCounters(nil, gpu.Stats{PRFBlocks: 9, ReadBytes: 10}), uint8(opCounters), 0)
	f.Add([]byte{0x03, frame.StatusOK}, uint8(0x03), 0) // the retired single-row update's OK
	f.Add(appendEpochResp(nil, opEpoch, 12345), uint8(opEpoch), 0)
	f.Add(appendEpochResp(nil, opUpdateBatch, 2), uint8(opUpdateBatch), 0)
	f.Add(appendOK(nil, opPing), uint8(opPing), 0)
	f.Add(appendSnapMeta(nil, 6, 9, 0, 1024), uint8(opSnapMeta), 0)
	f.Add(appendSnapChunk(nil, 6, 0, 1024, 128, []uint32{1, 2, 3}), uint8(opSnapChunk), 0)
	f.Fuzz(func(t *testing.T, body []byte, op uint8, keys int) {
		if keys < 0 || keys > 1<<16 {
			return
		}
		_, _, _, _ = parseAnswers(body, op, keys)
		_, _, _ = parseShape(body)
		_, _ = parseCounters(body)
		_ = parseOK(body, op)
		_, _ = parseEpochResp(body, op)
		_, _, _, _, _ = parseSnapMeta(body)
		_, _, _, _, _, _ = parseSnapChunk(body)
	})
}

// FuzzSnapshotFrames exercises the protocol v3 snapshot-transfer codecs
// both ways: arbitrary bytes must never panic the decoders, accepted
// frames must carry sane row ranges, and every well-formed encode must
// decode back to the values that produced it. The heal path trusts these
// frames to stitch a table from a peer — a silently mis-decoded offset or
// range would corrupt a member instead of crashing it, so the round-trip
// check is the load-bearing half.
func FuzzSnapshotFrames(f *testing.F) {
	f.Add(uint64(6), uint64(9), uint64(0), uint64(1024), uint64(128), []byte{1, 0, 0, 0, 2, 0, 0, 0})
	f.Add(uint64(1), uint64(1), uint64(512), uint64(4096), uint64(0), []byte{})
	f.Add(uint64(0), uint64(0), uint64(0), uint64(0), uint64(1<<40), []byte{0xff})
	f.Fuzz(func(t *testing.T, snapEpoch, effEpoch, lo, hi, off uint64, raw []byte) {
		// Decoders first: raw bytes at both parsers must not panic, and an
		// accepted frame must satisfy the range invariant.
		if se, ee, plo, phi, err := parseSnapMeta(raw); err == nil {
			if plo < 0 || plo > phi {
				t.Fatalf("parseSnapMeta accepted range [%d,%d) (epochs %d/%d)", plo, phi, se, ee)
			}
		}
		if _, plo, phi, _, words, err := parseSnapChunk(raw); err == nil {
			if plo < 0 || plo > phi {
				t.Fatalf("parseSnapChunk accepted range [%d,%d)", plo, phi)
			}
			_ = words
		}
		// Encoders second: a well-formed encode must round-trip exactly.
		const maxInt = uint64(^uint(0) >> 1)
		if lo > maxInt || hi > maxInt || lo > hi {
			return
		}
		meta := appendSnapMeta(nil, snapEpoch, effEpoch, int(lo), int(hi))
		se, ee, plo, phi, err := parseSnapMeta(meta)
		if err != nil || se != snapEpoch || ee != effEpoch || uint64(plo) != lo || uint64(phi) != hi {
			t.Fatalf("snap meta does not round-trip: (%d,%d,[%d,%d)) -> (%d,%d,[%d,%d)), err %v",
				snapEpoch, effEpoch, lo, hi, se, ee, plo, phi, err)
		}
		words := make([]uint32, len(raw)/4)
		for i := range words {
			words[i] = uint64ToU32Sample(raw, i)
		}
		chunk := appendSnapChunk(nil, snapEpoch, int(lo), int(hi), off, words)
		ce, clo, chi, coff, cwords, err := parseSnapChunk(chunk)
		if err != nil || ce != snapEpoch || uint64(clo) != lo || uint64(chi) != hi || coff != off {
			t.Fatalf("snap chunk header does not round-trip: err %v", err)
		}
		if len(cwords) != len(words) {
			t.Fatalf("snap chunk carries %d words, sent %d", len(cwords), len(words))
		}
		for i := range words {
			if cwords[i] != words[i] {
				t.Fatalf("snap chunk word %d: sent %#x, got %#x", i, words[i], cwords[i])
			}
		}
	})
}

// uint64ToU32Sample derives the i-th fuzz word from the raw input bytes.
func uint64ToU32Sample(raw []byte, i int) uint32 {
	return uint32(raw[i*4]) | uint32(raw[i*4+1])<<8 | uint32(raw[i*4+2])<<16 | uint32(raw[i*4+3])<<24
}

// FuzzHandshake throws arbitrary frames at the handshake decoders — the
// FIRST bytes either side ever reads from its peer, gob-decoded, so this
// is the most attacker-reachable parser in the package. Neither direction
// may panic, and well-formed handshakes (epoch field included) must
// round-trip.
func FuzzHandshake(f *testing.F) {
	seed := func(v any) []byte {
		var buf bytes.Buffer
		if err := writeHandshake(&buf, v); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add(seed(&hello{Proto: protoName, Version: ProtocolVersion, PRG: "aes128", Early: 2, Party: 0}))
	f.Add(seed(&hello{Proto: protoName, Version: ProtocolVersion, Party: AdoptParty, Early: engine.FullDepthKeys}))
	f.Add(seed(&welcome{Version: ProtocolVersion, PRG: "chacha20", Early: 2, Party: 1,
		Rows: 1 << 20, Lanes: 32, RowLo: 0, RowHi: 1 << 19, Epoch: 42, EpochKnown: true}))
	f.Add(seed(&welcome{Err: "shardnet: handshake: unknown protocol"}))
	f.Add([]byte{4, 0, 0, 0, 0xff, 0xfe, 0xfd, 0xfc})
	f.Fuzz(func(t *testing.T, frame []byte) {
		var h hello
		if err := readHandshake(bytes.NewReader(frame), &h); err == nil {
			// An accepted hello must survive re-encoding (gob is not
			// byte-canonical, so round-trip the VALUES, not the bytes).
			var buf bytes.Buffer
			if err := writeHandshake(&buf, &h); err != nil {
				t.Fatalf("accepted hello does not re-encode: %v", err)
			}
			var h2 hello
			if err := readHandshake(&buf, &h2); err != nil || h2 != h {
				t.Fatalf("hello does not round-trip: %+v vs %+v (%v)", h, h2, err)
			}
		}
		var w welcome
		if err := readHandshake(bytes.NewReader(frame), &w); err == nil {
			var buf bytes.Buffer
			if err := writeHandshake(&buf, &w); err != nil {
				t.Fatalf("accepted welcome does not re-encode: %v", err)
			}
			var w2 welcome
			if err := readHandshake(&buf, &w2); err != nil || w2 != w {
				t.Fatalf("welcome does not round-trip: %+v vs %+v (%v)", w, w2, err)
			}
		}
	})
}
