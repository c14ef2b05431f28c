package frame

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
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
