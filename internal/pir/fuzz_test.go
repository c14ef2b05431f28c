package pir

import (
	"bytes"
	"testing"

	"gpudpf/internal/engine"
	"gpudpf/internal/frame"
	"gpudpf/internal/serving"
)

// FuzzClientFrames throws arbitrary frame bodies at both ends of the client
// protocol: the request parser Serve feeds from the network and the response
// decoders a Remote feeds from its server. Neither may panic, and an
// accepted body must re-encode to itself (the codec is canonical). Seeded
// with real frames of the three ops.
func FuzzClientFrames(f *testing.F) {
	tab, err := NewTable(64, 3)
	if err != nil {
		f.Fatal(err)
	}
	srv, err := NewServer(0, tab)
	if err != nil {
		f.Fatal(err)
	}
	keys := testKeys(f, tab.NumRows, 3)
	answers, err := srv.Answer(keys)
	if err != nil {
		f.Fatal(err)
	}
	writes := []engine.RowWrite{{Row: 7, Vals: []uint32{1, 2, 3}}, {Row: 9, Vals: []uint32{4, 5, 6}}}
	f.Add(appendRequest(nil, opAnswer, keys, nil), 3)
	f.Add(appendRequest(nil, opUpdateBatch, nil, writes), 0)
	f.Add(appendRequest(nil, opStats, nil, nil), 0)
	f.Add(appendAnswers(nil, answers), 3)
	f.Add(appendWords(nil, opUpdateBatch, 41), 0)
	f.Add(appendWords(nil, opStats, 1000, 7, 2), 0)
	f.Add(appendFailure(nil, opAnswer, serving.ErrOverloaded), 3)
	f.Add(frame.AppendErr(nil, frame.OpErr, frame.StatusErr, ErrRequestTooLarge.Error()), 1)
	f.Add([]byte{opAnswer, 0xff, 0xff, 0xff, 0xff}, 1)
	f.Add([]byte{opAnswer, frame.StatusOK, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, 1)
	f.Fuzz(func(t *testing.T, body []byte, wantKeys int) {
		if op, keys, writes, err := parseRequest(body); err == nil {
			if got := appendRequest(nil, op, keys, writes); !bytes.Equal(got, body) {
				t.Fatalf("accepted request does not re-encode canonically:\n in  %x\n out %x", body, got)
			}
		}
		if wantKeys < 0 || wantKeys > MaxRequestKeys {
			return
		}
		for _, op := range []byte{opAnswer, opUpdateBatch, opStats} {
			r := frame.NewReader(body)
			status, _, err := frame.ResponseHeader(r, op)
			if err != nil || status != frame.StatusOK {
				continue
			}
			var got []byte
			var a, b, c uint64
			switch op {
			case opAnswer:
				answers, err := parseAnswers(r, wantKeys)
				if err != nil || len(answers) == 0 {
					continue
				}
				got = appendAnswers(nil, answers)
			case opUpdateBatch:
				if parseWords(r, &a) != nil {
					continue
				}
				got = appendWords(nil, op, a)
			case opStats:
				if parseWords(r, &a, &b, &c) != nil {
					continue
				}
				got = appendWords(nil, op, a, b, c)
			}
			if !bytes.Equal(got, body) {
				t.Fatalf("accepted %#x response does not re-encode canonically:\n in  %x\n out %x", op, body, got)
			}
		}
	})
}
