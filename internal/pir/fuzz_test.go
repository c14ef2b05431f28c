package pir

import (
	"bytes"
	"encoding/binary"
	"net"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"gpudpf/internal/engine"
	"gpudpf/internal/frame"
	"gpudpf/internal/serving"
)

// Client-op response bodies, built by hand like the requests: op, status
// OK, then the payload.
func answersResponse(answers [][]uint32) []byte {
	dst := []byte{0x01, frame.StatusOK}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(answers)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(answers[0])))
	return frame.AppendMatrix(dst, answers)
}

func wordsResponse(op byte, words ...uint64) []byte {
	dst := []byte{op, frame.StatusOK}
	for _, w := range words {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	return dst
}

// FuzzClientFrames throws arbitrary frame bodies at both ends of the client
// protocol through pir's own faces: as a request to a Serve front, and as
// the response a Remote reads from its server. The front must answer with
// the request's op or refuse the frame, and still answer an honest client
// correctly afterwards; a Remote must fail, or accept only a response that
// re-encodes to itself (the codec is canonical) in the shape it asked for.
// Seeded with real frames of the three client ops, and with answer requests
// whose key batch lies: count×width short of and past the bytes present,
// width 0, a width past the frame cap, a count past MaxRequestKeys.
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

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { l.Close() })
	go Serve(l, srv)
	front := l.Addr().String()
	honest, err := Dial(front)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { honest.Close() })

	// fake answers every request frame with the current input.
	var reply atomic.Pointer[[]byte]
	fake, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { fake.Close() })
	go func() {
		for {
			conn, err := fake.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				var buf []byte
				for {
					if _, err := frame.Read(conn, MaxRequestBytes, &buf); err != nil {
						return
					}
					if frame.Write(conn, append(frame.Begin(nil), *reply.Load()...), MaxResponseBytes) != nil {
						return
					}
				}
			}()
		}
	}()

	writes := []engine.RowWrite{{Row: 7, Vals: []uint32{1, 2, 3}}, {Row: 9, Vals: []uint32{4, 5, 6}}}
	f.Add(answerRequest(keys), 3)
	f.Add(updateRequest(writes), 0)
	f.Add([]byte{0x0e}, 0)
	f.Add(answersResponse(answers), 3)
	f.Add(wordsResponse(0x06, 41), 0)
	f.Add(wordsResponse(0x0e, 1000, 7, 2), 0)
	f.Add(frame.AppendErr(nil, 0x01, 2, serving.ErrOverloaded.Error()), 3)
	f.Add(frame.AppendErr(nil, frame.OpErr, frame.StatusErr, ErrRequestTooLarge.Error()), 1)
	f.Add([]byte{0x01, 0xff, 0xff, 0xff, 0xff}, 1)
	f.Add([]byte{0x01, frame.StatusOK, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, 1)
	short := answerRequest(keys)
	f.Add(short[:len(short)-1], 3)
	f.Add(append(answerRequest(keys), 0), 3)
	f.Add(binary.LittleEndian.AppendUint32(short[:5:5], 0), 1)
	f.Add(append(binary.LittleEndian.AppendUint32(short[:5:5], 1<<31), keys[0]...), 1)
	f.Add(answerRequest(byteKeys(MaxRequestKeys+1)), 1)
	f.Fuzz(func(t *testing.T, body []byte, wantKeys int) {
		conn, err := net.Dial("tcp", front)
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		if frame.Write(conn, append(frame.Begin(nil), body...), MaxRequestBytes) == nil {
			var buf []byte
			resp, err := frame.Read(conn, MaxResponseBytes, &buf)
			switch {
			case err != nil:
				t.Fatalf("front neither answered nor refused request %x: %v", body, err)
			case resp[0] != frame.OpErr && (len(body) == 0 || resp[0] != body[0]):
				t.Fatalf("front answered request %x with op %#x", body, resp[0])
			}
		}
		conn.Close()
		want, err := srv.Answer(keys)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := honest.Answer(keys); err != nil || !slices.EqualFunc(got, want, slices.Equal) {
			t.Fatalf("after request %x the front answers %v, %v; want %v", body, got, err, want)
		}

		if wantKeys < 0 || wantKeys > MaxRequestKeys {
			return
		}
		reply.Store(&body)
		ask := make([][]byte, wantKeys)
		for i := range ask {
			ask[i] = keys[i%len(keys)]
		}
		for _, call := range []func(r *Remote) []byte{
			func(r *Remote) []byte {
				got, err := r.Answer(ask)
				switch {
				case err != nil:
					return nil
				case len(got) != wantKeys:
					t.Fatalf("accepted %d answers for %d keys from response %x", len(got), wantKeys, body)
				case len(got) == 0:
					return nil
				}
				return answersResponse(got)
			},
			func(r *Remote) []byte {
				epoch, err := r.UpdateBatch(writes)
				if err != nil {
					return nil
				}
				return wordsResponse(0x06, epoch)
			},
			func(r *Remote) []byte {
				s, err := r.Stats()
				if err != nil {
					return nil
				}
				return wordsResponse(0x0e, s.Accepted, s.Shed, s.EpochRetries)
			},
		} {
			r, err := Dial(fake.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			got := call(r)
			r.Close()
			if got != nil && !bytes.Equal(got, body) {
				t.Fatalf("accepted response does not re-encode canonically:\n in  %x\n out %x", body, got)
			}
		}
	})
}
