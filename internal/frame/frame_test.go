package frame

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"
)

// TestCapBoundary: a body of exactly max bytes passes both ways; one byte
// more is refused by Write before sending and by Read on the header alone,
// before anything is allocated for it.
func TestCapBoundary(t *testing.T) {
	const max = 64
	var wire bytes.Buffer
	atCap := append(Begin(nil), make([]byte, max)...)
	if err := Write(&wire, atCap, max); err != nil {
		t.Fatalf("write at the cap: %v", err)
	}
	var buf []byte
	if body, err := Read(&wire, max, &buf); err != nil || len(body) != max {
		t.Fatalf("read at the cap: %d bytes, %v", len(body), err)
	}
	if err := Write(&wire, append(atCap, 0), max); !errors.Is(err, ErrTooLarge) || wire.Len() != 0 {
		t.Fatalf("write over the cap: %v with %d bytes sent, want ErrTooLarge and none", err, wire.Len())
	}
	buf = nil
	wire.Write(binary.LittleEndian.AppendUint32(nil, max+1))
	if _, err := Read(&wire, max, &buf); !errors.Is(err, ErrTooLarge) || buf != nil {
		t.Fatalf("read over the cap: %v with a %d-byte buffer, want ErrTooLarge and no allocation", err, cap(buf))
	}
}

// TestReadMalformed: an empty frame is a protocol error, a body cut short an
// unexpected EOF, a clean close between frames io.EOF.
func TestReadMalformed(t *testing.T) {
	var buf []byte
	if _, err := Read(bytes.NewReader(Begin(nil)), 64, &buf); !errors.Is(err, ErrProtocol) {
		t.Errorf("empty frame: %v, want ErrProtocol", err)
	}
	if _, err := Read(bytes.NewReader([]byte{8, 0, 0, 0, 1, 2, 3}), 64, &buf); err != io.ErrUnexpectedEOF {
		t.Errorf("truncated body: %v, want io.ErrUnexpectedEOF", err)
	}
	if _, err := Read(bytes.NewReader(nil), 64, &buf); err != io.EOF {
		t.Errorf("closed between frames: %v, want io.EOF", err)
	}
}

// TestKeyBatch: a key batch is count, one width and the keys back to back.
// It round-trips; the encoder refuses what has no encoding and writes
// nothing; the parser refuses a count or width that does not add up to
// the bytes present, before allocating for it.
func TestKeyBatch(t *testing.T) {
	keys := [][]byte{{1, 2, 3}, {4, 5, 6}}
	body, err := AppendKeys([]byte{0x01}, keys)
	if err != nil {
		t.Fatal(err)
	}
	if want := []byte{0x01, 2, 0, 0, 0, 3, 0, 0, 0, 1, 2, 3, 4, 5, 6}; !bytes.Equal(body, want) {
		t.Fatalf("batch %x, want %x", body, want)
	}
	r := NewReader(body[1:])
	got, err := ParseKeys(r, 2)
	if err != nil || len(got) != 2 || !bytes.Equal(got[0], keys[0]) || !bytes.Equal(got[1], keys[1]) || r.Remaining() != 0 {
		t.Fatalf("parsed %x, %v", got, err)
	}

	for name, tc := range map[string]struct {
		keys [][]byte
		want error
	}{
		"empty":       {nil, nil},
		"zero width":  {[][]byte{{}}, nil},
		"mixed width": {[][]byte{{1, 2, 3}, {4}}, ErrMixedWidth},
	} {
		out, err := AppendKeys([]byte{0x01}, tc.keys)
		if err == nil || tc.want != nil && !errors.Is(err, tc.want) || !bytes.Equal(out, []byte{0x01}) {
			t.Errorf("%s: encoded %x, %v", name, out, err)
		}
	}

	batch := func(count, width uint32, n int) []byte {
		b := binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, count), width)
		return append(b, make([]byte, n)...)
	}
	for name, tc := range map[string]struct {
		body []byte
		want string
	}{
		"count 0":             {batch(0, 3, 0), "no keys"},
		"count over the cap":  {batch(3, 1, 3), "2-key cap"},
		"count past the body": {batch(100, 1, 8), "keys declared"},
		"width 0":             {batch(2, 0, 0), "zero-width"},
		"width missing":       {batch(2, 0, 0)[:6], "truncated key width"},
		"short by one":        {batch(2, 3, 5), "truncated key batch"},
		"long by one":         {batch(2, 3, 7), "1 trailing bytes"},
		"width 2^32-1":        {batch(2, 1<<32-1, 6), "truncated key batch"},
	} {
		if _, err := ParseKeys(NewReader(tc.body), 2); !errors.Is(err, ErrProtocol) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: %v, want a protocol error naming %q", name, err, tc.want)
		}
	}
}
