package shardnet

import (
	"bytes"
	"errors"
	"testing"

	"gpudpf/internal/dpf"
	"gpudpf/internal/engine"
	"gpudpf/internal/frame"
	"gpudpf/internal/serving"
)

// retiredUpdateRequest is a well-formed request of retired op 0x03 (the
// single-row update: row 12, three lanes) — a seed of the refusal corpus.
var retiredUpdateRequest = []byte{0x03, 12, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0}

// retiredShapeRequest is the request of retired op 0x04, the shape query:
// the op byte alone.
var retiredShapeRequest = []byte{0x04}

// helloBounds are hellos with every field at its lower and its upper
// bound.
var helloBounds = []hello{
	{},
	{Version: 1<<32 - 1, PRG: "0123456789abcdef", Construction: 1<<32 - 1, Early: dpf.MaxEarlyBits, Party: 1,
		Rows: int(maxInt), Lanes: 1<<32 - 1, RowLo: int(maxInt), RowHi: int(maxInt), Epoch: 1<<64 - 1},
}

// FuzzParseRequest throws arbitrary frame bodies at the one request parser
// every server connection feeds: it must never panic and never accept a
// body that does not re-encode to itself (the codec is canonical). Every
// op of both sets is seeded, the hello included, and so are key batches
// whose count and width lie: count×width short of and past the bytes
// present, width 0, a width past the frame cap, a count past the key cap.
func FuzzParseRequest(f *testing.F) {
	key := bytes.Repeat([]byte{0xab}, 37)
	writes := []engine.RowWrite{{Row: 7, Vals: []uint32{1, 2, 3}}, {Row: 9, Vals: []uint32{4}}}
	for _, req := range []*request{
		{op: opAnswer, keys: [][]byte{key, key}},
		{op: opAnswerRange, keys: [][]byte{key}, lo: 3, hi: 999},
		{op: opCounters},
		{op: opUpdateBatch, writes: writes},
		{op: opEpoch},
		{op: opPrepare, epoch: 41, writes: writes},
		{op: opCommit, epoch: 41},
		{op: opAbort, epoch: 41},
		{op: opPing},
		{op: opSnapMeta},
		{op: opSnapChunk, epoch: 41, off: 4096, max: 1 << 18},
		{op: opStats},
		{op: opHello, hello: helloBounds[0]},
		{op: opHello, hello: helloBounds[1]},
	} {
		f.Add(encode(f, nil, req))
	}
	f.Add([]byte{opAnswer, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{opUpdateBatch, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{opSnapChunk, 0xff, 0xff, 0xff})
	f.Add([]byte{opHello, 4, 0, 0})
	f.Add(retiredUpdateRequest)
	f.Add(retiredShapeRequest)
	for _, b := range keyBatchLies(key) {
		f.Add(append([]byte{opAnswer}, b...))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req := new(request)
		if parseRequestInto(body, DefaultMaxBatch, req) != nil {
			return
		}
		if got, err := appendRequest(nil, req); err != nil || !bytes.Equal(got, body) {
			t.Fatalf("accepted request does not re-encode canonically (%v):\n in  %x\n out %x", err, body, got)
		}
	})
}

// keyBatchLies are key batches (count, width, key bytes) that a parser must
// refuse, built around key: count×width one byte past and one byte short of
// the bytes present, width 0, a width past any frame cap, a count past
// DefaultMaxBatch, a count of 0, and the pre-version-5 framing of two keys
// of different widths.
func keyBatchLies(key []byte) [][]byte {
	batch := func(count, width uint32, body ...[]byte) []byte {
		b := le.AppendUint32(le.AppendUint32(nil, count), width)
		for _, p := range body {
			b = append(b, p...)
		}
		return b
	}
	w := uint32(len(key))
	return [][]byte{
		batch(2, w, key, key[1:]),
		batch(2, w, key, key, key[:1]),
		batch(1, 0),
		batch(1, 1<<31, key),
		batch(DefaultMaxBatch+1, 1, make([]byte, DefaultMaxBatch+1)),
		batch(0, w),
		append(le.AppendUint32(batch(2, w, key), 5), key[:5]...),
	}
}

// responseWords is the payload width, in words, of the fixed-width
// responses.
var responseWords = map[byte]int{
	opCounters: 2, opUpdateBatch: 1, opEpoch: 1, opPrepare: 0, opCommit: 0,
	opAbort: 0, opPing: 0, opSnapMeta: 4, opStats: 3,
}

// FuzzParseResponses covers the one response decoder set both clients
// feed from their server: a hostile or corrupt peer must not be able to
// panic a client, and an accepted response must re-encode to itself.
// Every op of both sets is seeded, failures included.
func FuzzParseResponses(f *testing.F) {
	f.Add(appendAnswers(nil, [][]uint32{{1, 2}, {3, 4}}), opAnswer, 2)
	f.Add(appendRangeAnswers(nil, [][]uint32{{1, 2}}, 2, 77), opAnswerRange, 1)
	f.Add(appendErr(nil, opAnswerRange, errors.New("engine: shard failed")), opAnswerRange, 1)
	f.Add(appendErr(nil, opAnswer, serving.ErrOverloaded), opAnswer, 3)
	f.Add(appendWords(nil, opCounters, 9, 10), opCounters, 0)
	// The responses of the retired ops: the single-row update's OK and
	// the shape query's rows and lanes.
	f.Add([]byte{0x03, frame.StatusOK}, byte(0x03), 0)
	f.Add([]byte{0x04, frame.StatusOK, 0, 4, 0, 0, 0, 0, 0, 0, 32, 0, 0, 0}, byte(0x04), 0)
	f.Add(appendWords(nil, opEpoch, 12345), opEpoch, 0)
	f.Add(appendWords(nil, opUpdateBatch, 2), opUpdateBatch, 0)
	f.Add(appendWords(nil, opPing), opPing, 0)
	f.Add(appendWords(nil, opSnapMeta, 6, 9, 0, 1024), opSnapMeta, 0)
	f.Add(appendSnapChunk(nil, 6, 0, 1024, 128, []uint32{1, 2, 3}), opSnapChunk, 0)
	f.Add(appendWords(nil, opStats, 1000, 7, 2), opStats, 0)
	f.Add(appendWelcome(nil, &helloBounds[1]), opHello, 0)
	f.Add(frame.AppendErr(nil, frame.OpErr, frame.StatusErr, "request exceeds the frame cap"), opAnswer, 1)
	f.Add([]byte{opAnswer, frame.StatusOK, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, opAnswer, 1)
	f.Fuzz(func(t *testing.T, body []byte, op byte, keys int) {
		if keys < 0 || keys > 1<<16 {
			return
		}
		r := new(frame.Reader)
		r.Reset(body)
		if status, _, err := frame.ResponseHeader(r, op); err != nil || status != frame.StatusOK {
			return
		}
		var got []byte
		switch op {
		case opAnswer:
			if a, err := parseAnswers(r, keys); err == nil && len(a) > 0 {
				got = appendAnswers(nil, a)
			}
		case opAnswerRange:
			if a, epoch, err := parseRangeAnswers(r, keys); err == nil && len(a) > 0 {
				got = appendRangeAnswers(nil, a, len(a[0]), epoch)
			}
		case opSnapChunk:
			if epoch, lo, hi, off, words, err := parseSnapChunk(r); err == nil {
				got = appendSnapChunk(nil, epoch, lo, hi, off, words)
			}
		case opHello:
			if w, err := parseHello(r); err == nil {
				got = appendWelcome(nil, &w)
			}
		default:
			n, ok := responseWords[op]
			words := make([]uint64, n)
			ptrs := make([]*uint64, n)
			for i := range words {
				ptrs[i] = &words[i]
			}
			if ok && parseWords(r, ptrs...) == nil {
				got = appendWords(nil, op, words...)
			}
		}
		if got != nil && !bytes.Equal(got, body) {
			t.Fatalf("accepted %#x response does not re-encode canonically:\n in  %x\n out %x", op, body, got)
		}
	})
}

// snapMeta decodes a whole snapshot-meta response the way Client does.
func snapMeta(body []byte) (snapEpoch, effEpoch, lo, hi uint64, err error) {
	r := new(frame.Reader)
	r.Reset(body)
	if _, _, err = frame.ResponseHeader(r, opSnapMeta); err == nil {
		if err = parseWords(r, &snapEpoch, &effEpoch, &lo, &hi); err == nil {
			err = checkRange("snapshot meta", lo, hi)
		}
	}
	return snapEpoch, effEpoch, lo, hi, err
}

// snapChunk decodes a whole snapshot-chunk response.
func snapChunk(body []byte) (epoch uint64, lo, hi int, off uint64, words []uint32, err error) {
	r := new(frame.Reader)
	r.Reset(body)
	if _, _, err = frame.ResponseHeader(r, opSnapChunk); err != nil {
		return 0, 0, 0, 0, nil, err
	}
	return parseSnapChunk(r)
}

// FuzzSnapshotFrames exercises the snapshot-transfer codecs both ways:
// arbitrary bytes must never panic the decoders, accepted frames must
// carry sane row ranges, and every well-formed encode must decode back to
// the values that produced it. The heal path trusts these frames to stitch
// a table from a peer — a silently mis-decoded offset or range would
// corrupt a member instead of crashing it, so the round-trip check is the
// load-bearing half.
func FuzzSnapshotFrames(f *testing.F) {
	f.Add(uint64(6), uint64(9), uint64(0), uint64(1024), uint64(128), []byte{1, 0, 0, 0, 2, 0, 0, 0})
	f.Add(uint64(1), uint64(1), uint64(512), uint64(4096), uint64(0), []byte{})
	f.Add(uint64(0), uint64(0), uint64(0), uint64(0), uint64(1<<40), []byte{0xff})
	f.Fuzz(func(t *testing.T, snapEpoch, effEpoch, lo, hi, off uint64, raw []byte) {
		// Decoders first: raw bytes must not panic either parser, and an
		// accepted frame must satisfy the range invariant.
		if _, _, plo, phi, err := snapMeta(raw); err == nil && plo > phi {
			t.Fatalf("snapshot meta accepted range [%d,%d)", plo, phi)
		}
		if _, plo, phi, _, _, err := snapChunk(raw); err == nil && (plo < 0 || plo > phi) {
			t.Fatalf("snapshot chunk accepted range [%d,%d)", plo, phi)
		}
		// Encoders second: a well-formed encode must round-trip exactly.
		if lo > maxInt || hi > maxInt || lo > hi {
			return
		}
		se, ee, plo, phi, err := snapMeta(appendWords(nil, opSnapMeta, snapEpoch, effEpoch, lo, hi))
		if err != nil || se != snapEpoch || ee != effEpoch || plo != lo || phi != hi {
			t.Fatalf("snap meta does not round-trip: (%d,%d,[%d,%d)) -> (%d,%d,[%d,%d)), err %v",
				snapEpoch, effEpoch, lo, hi, se, ee, plo, phi, err)
		}
		words := make([]uint32, len(raw)/4)
		for i := range words {
			words[i] = le.Uint32(raw[i*4:])
		}
		ce, clo, chi, coff, cwords, err := snapChunk(appendSnapChunk(nil, snapEpoch, int(lo), int(hi), off, words))
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

// FuzzHandshake throws arbitrary bodies at the hello and welcome decoders
// — the first bytes a server reads from a pinning client, and the first a
// client reads back — seeded with both at every field's bounds. Neither
// may panic, and an accepted hello or welcome must re-encode to itself.
func FuzzHandshake(f *testing.F) {
	for _, h := range helloBounds {
		f.Add(encode(f, nil, &request{op: opHello, hello: h}))
		f.Add(appendWelcome(nil, &h))
	}
	f.Add(frame.AppendErr(nil, opHello, frame.StatusErr, "shardnet: hello refused: client keys use prg=aes128, this server serves prg=chacha20"))
	f.Add(appendWelcome(nil, &hello{Version: ProtocolVersion, PRG: "a\x00b", Rows: 64, Lanes: 2, RowHi: 64}))
	f.Add([]byte{opHello, 0xff, 0xfe, 0xfd, 0xfc})
	f.Fuzz(func(t *testing.T, body []byte) {
		if req := new(request); parseRequestInto(body, DefaultMaxBatch, req) == nil && req.op == opHello {
			if got := encode(t, nil, req); !bytes.Equal(got, body) {
				t.Fatalf("accepted hello does not re-encode:\n in  %x\n out %x", body, got)
			}
		}
		r := new(frame.Reader)
		r.Reset(body)
		if status, _, err := frame.ResponseHeader(r, opHello); err == nil && status == frame.StatusOK {
			if w, err := parseHello(r); err == nil {
				if got := appendWelcome(nil, &w); !bytes.Equal(got, body) {
					t.Fatalf("accepted welcome does not re-encode:\n in  %x\n out %x", body, got)
				}
			}
		}
	})
}
