// Package frame is the stack's one wire framing, spoken on both ports: the
// client protocol (internal/pir) and the shard protocol (internal/shardnet).
// A frame is a little-endian uint32 byte count and then that many body
// bytes; a reader refuses a count over its cap before allocating for it. A
// body starts with an op byte, a response body with op and status. The
// package also holds the body pieces both protocols carry — key batches,
// row-write batches, the words of an answer matrix, the op,status,msg
// error response — each parsed with every declared count checked against
// the bytes actually present before anything is allocated for it.
package frame

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"gpudpf/internal/engine"
	"gpudpf/internal/strategy"
)

// ErrTooLarge is the named protocol error for a frame whose length exceeds
// the connection's cap; a reader raises it before any payload allocation.
var ErrTooLarge = errors.New("frame: exceeds size cap")

// ErrProtocol is wrapped by every malformed-frame error, so transports can
// distinguish a broken peer from a failing backend.
var ErrProtocol = errors.New("frame: protocol error")

// HeaderLen is the size of a frame's length prefix: uint32 little-endian
// byte count of the body that follows.
const HeaderLen = 4

// Begin resets buf to an empty frame: room for the length prefix, so the
// encoders append the body behind it and Write sends header and body as one
// Write on any net.Conn — a net.Buffers pair is one writev only on a bare
// *net.TCPConn and two writes behind any wrapper.
func Begin(buf []byte) []byte { return append(buf[:0], 0, 0, 0, 0) }

// Write fills in the length prefix of a frame built on Begin and sends it.
// Connections are lockstep, so nothing interleaves.
func Write(w io.Writer, frame []byte, max int) error {
	body := len(frame) - HeaderLen
	if body > max {
		return fmt.Errorf("%w: %d-byte frame, cap %d", ErrTooLarge, body, max)
	}
	binary.LittleEndian.PutUint32(frame, uint32(body))
	_, err := w.Write(frame)
	return err
}

// Read reads one frame into *buf (grown as needed, reused across calls) and
// returns the body. A declared length over max fails with ErrTooLarge
// before any allocation. On a connection r is its bufio.Reader, so header
// and body normally cost one read between them.
func Read(r io.Reader, max int, buf *[]byte) ([]byte, error) {
	// The header lands in *buf once it has room: a local array handed to
	// io.ReadFull would escape, one allocation per frame.
	var hdr []byte
	if cap(*buf) >= HeaderLen {
		hdr = (*buf)[:HeaderLen]
	} else {
		hdr = make([]byte, HeaderLen)
	}
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	// Compare in uint64 BEFORE converting: on 32-bit platforms a hostile
	// length near 2^32 would wrap int negative and dodge the cap check
	// straight into a slice-bounds panic.
	declared := binary.LittleEndian.Uint32(hdr)
	if uint64(declared) > uint64(max) {
		return nil, fmt.Errorf("%w: peer declared a %d-byte frame, cap is %d", ErrTooLarge, declared, max)
	}
	n := int(declared)
	if n == 0 {
		return nil, fmt.Errorf("%w: empty frame", ErrProtocol)
	}
	if cap(*buf) < n {
		*buf = make([]byte, n)
	}
	body := (*buf)[:n]
	if _, err := io.ReadFull(r, body); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return body, nil
}

// Whole reports whether br already holds a whole frame, so reading it
// cannot block. It looks at the header only when all four of its bytes are
// buffered: a Peek for more would wait on the peer.
func Whole(br *bufio.Reader) bool {
	n := br.Buffered()
	if n < HeaderLen {
		return false
	}
	hdr, _ := br.Peek(HeaderLen)
	return uint64(binary.LittleEndian.Uint32(hdr))+HeaderLen <= uint64(n)
}

// Reader is a bounds-checked cursor over one frame body: a read past the
// end returns zero and sets Bad instead of panicking.
type Reader struct {
	b   []byte
	off int
	bad bool
}

// Reset restarts r at the first byte of body, so a connection can keep one
// cursor for every frame it reads.
func (r *Reader) Reset(body []byte) { *r = Reader{b: body} }

// Remaining is the number of bytes not yet consumed.
func (r *Reader) Remaining() int { return len(r.b) - r.off }

// Bad reports whether any read so far ran past the end of the body.
func (r *Reader) Bad() bool { return r.bad }

// U8, U32 and U64 read the next little-endian integer.
func (r *Reader) U8() byte {
	if r.off+1 > len(r.b) {
		r.bad = true
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *Reader) U32() uint32 {
	if r.off+4 > len(r.b) {
		r.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *Reader) U64() uint64 {
	if r.off+8 > len(r.b) {
		r.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

// Take returns the next n bytes, aliasing the body.
func (r *Reader) Take(n int) []byte {
	if n < 0 || r.off+n > len(r.b) {
		r.bad = true
		return nil
	}
	v := r.b[r.off : r.off+n]
	r.off += n
	return v
}

// ErrMixedWidth is the named refusal of a key batch whose keys are not all
// one length: a batch is one count, one width and count×width key bytes.
var ErrMixedWidth = errors.New("frame: mixed-width key batch")

// AppendKeys encodes a key batch: count, width, then the keys back to back.
// A batch with no keys, an empty key or keys of different widths cannot be
// framed; AppendKeys returns an error for it and writes nothing.
func AppendKeys(dst []byte, keys [][]byte) ([]byte, error) {
	if len(keys) == 0 {
		return dst, errors.New("frame: key batch carries no keys")
	}
	width := len(keys[0])
	if width == 0 {
		return dst, errors.New("frame: zero-width keys")
	}
	for i, k := range keys {
		if len(k) != width {
			return dst, fmt.Errorf("%w: key %d is %d bytes, key 0 is %d", ErrMixedWidth, i, len(k), width)
		}
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(keys)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(width))
	for _, k := range keys {
		dst = append(dst, k...)
	}
	return dst, nil
}

// ParseKeys decodes a key batch that runs to the end of the body, with the
// declared count and width checked against the caller's batch cap and the
// bytes actually present BEFORE anything is allocated for them: a hostile
// frame declaring millions of keys must not buy a slice-header allocation
// bomb. The keys alias the frame body; the caller must finish with them
// before reusing its buffer. The key slices reuse dst's capacity.
func ParseKeys(r *Reader, maxKeys int, dst [][]byte) ([][]byte, error) {
	count := r.U32()
	if r.bad {
		return nil, fmt.Errorf("%w: truncated key count", ErrProtocol)
	}
	// Compare in uint64 throughout, so no check can be dodged by a count
	// or width that overflows int on 32-bit platforms. Every key costs at
	// least a byte, so a count beyond the remaining bytes is a lie
	// whatever the width says.
	switch {
	case count == 0:
		return nil, fmt.Errorf("%w: key batch carries no keys", ErrProtocol)
	case uint64(count) > uint64(r.Remaining()):
		return nil, fmt.Errorf("%w: %d keys declared in a %d-byte frame", ErrProtocol, count, len(r.b))
	case uint64(count) > uint64(maxKeys):
		return nil, fmt.Errorf("%w: batch of %d keys exceeds the %d-key cap", ErrProtocol, count, maxKeys)
	}
	width := r.U32()
	if r.bad {
		return nil, fmt.Errorf("%w: truncated key width", ErrProtocol)
	}
	if width == 0 {
		return nil, fmt.Errorf("%w: zero-width keys", ErrProtocol)
	}
	switch total, have := uint64(count)*uint64(width), uint64(r.Remaining()); {
	case total > have:
		return nil, fmt.Errorf("%w: truncated key batch: %d keys of %d bytes in %d bytes, or a mixed-width batch", ErrProtocol, count, width, have)
	case total < have:
		return nil, fmt.Errorf("%w: %d trailing bytes after %d keys of %d bytes, or a mixed-width batch", ErrProtocol, have-total, count, width)
	}
	keys := dst[:0]
	if cap(keys) < int(count) {
		keys = make([][]byte, 0, count)
	}
	for range count {
		keys = append(keys, r.Take(int(width)))
	}
	return keys, nil
}

// AppendWrites encodes an update-write batch: count, then per write the
// row, lane count and values.
func AppendWrites(dst []byte, writes []engine.RowWrite) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(writes)))
	for _, w := range writes {
		dst = binary.LittleEndian.AppendUint64(dst, w.Row)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(w.Vals)))
		for _, v := range w.Vals {
			dst = binary.LittleEndian.AppendUint32(dst, v)
		}
	}
	return dst
}

// ParseWrites decodes an update-write batch with the same
// declared-vs-present discipline as ParseKeys: every count is checked
// against the bytes actually in the frame BEFORE anything is allocated
// for it.
func ParseWrites(r *Reader) ([]engine.RowWrite, error) {
	count := r.U32()
	if r.bad {
		return nil, fmt.Errorf("%w: truncated write count", ErrProtocol)
	}
	// Each write costs at least its 12-byte row+lanes header, so a count
	// beyond remaining/12 is a lie regardless of content. uint64 math so
	// the check cannot be dodged on 32-bit platforms.
	if uint64(count) > uint64(r.Remaining()/12)+1 {
		return nil, fmt.Errorf("%w: %d writes declared in a %d-byte frame", ErrProtocol, count, len(r.b))
	}
	writes := make([]engine.RowWrite, count)
	for i := range writes {
		writes[i].Row = r.U64()
		lanes := r.U32()
		if r.bad {
			return nil, fmt.Errorf("%w: truncated write %d header", ErrProtocol, i)
		}
		if uint64(lanes)*4 > uint64(r.Remaining()) {
			return nil, fmt.Errorf("%w: write %d declares %d lanes, frame carries %d bytes", ErrProtocol, i, lanes, r.Remaining())
		}
		vals := make([]uint32, lanes)
		for j := range vals {
			vals[j] = r.U32()
		}
		if r.bad {
			return nil, fmt.Errorf("%w: truncated write %d values", ErrProtocol, i)
		}
		writes[i].Vals = vals
	}
	return writes, nil
}

// AppendMatrix encodes the words of an answer matrix, row after row; the
// caller has already written its shape.
func AppendMatrix(dst []byte, answers [][]uint32) []byte {
	for _, a := range answers {
		for _, v := range a {
			dst = binary.LittleEndian.AppendUint32(dst, v)
		}
	}
	return dst
}

// ParseMatrix decodes the rest of the body as the n × lanes answer matrix
// whose shape the caller has just read off the wire, for a request of
// wantKeys keys.
func ParseMatrix(r *Reader, n, lanes uint32, wantKeys int) ([][]uint32, error) {
	if uint64(n) != uint64(wantKeys) {
		return nil, fmt.Errorf("%w: %d answers for %d keys", ErrProtocol, n, wantKeys)
	}
	// uint64 math like Read/ParseKeys: a lanes value chosen so n·lanes·4
	// wraps int on 32-bit platforms must not dodge the size check into a
	// giant NewAnswers allocation.
	if lanes == 0 || uint64(n)*uint64(lanes)*4 != uint64(r.Remaining()) {
		return nil, fmt.Errorf("%w: %d×%d answers in %d payload bytes", ErrProtocol, n, lanes, r.Remaining())
	}
	answers := strategy.NewAnswers(int(n), int(lanes))
	words := r.Take(r.Remaining())
	for _, a := range answers {
		for l := range a {
			a[l] = binary.LittleEndian.Uint32(words[4*l:])
		}
		words = words[4*len(a):]
	}
	return answers, nil
}

// Response status byte. Values above StatusErr are a protocol's own named
// failures; like StatusErr they are followed by a message.
const (
	StatusOK  byte = 0
	StatusErr byte = 1
)

// OpErr is the response-only opcode for failures where no request op was
// ever parsed (an unreadable or oversized frame); the sender hangs up
// after it.
const OpErr byte = 0xff

// AppendErr encodes a failure response for op.
func AppendErr(dst []byte, op, status byte, msg string) []byte {
	dst = append(dst, op, status)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(msg)))
	return append(dst, msg...)
}

// ResponseHeader strips op+status off a response to a wantOp request.
// StatusOK leaves r at the payload; any other status returns the peer's
// message with it. An OpErr response matches any request and is an
// ErrProtocol: the peer refused the frame itself (oversized, unparseable)
// and is hanging up, so the connection must be retired, not reused.
func ResponseHeader(r *Reader, wantOp byte) (status byte, msg string, err error) {
	op, status := r.U8(), r.U8()
	if r.bad {
		return 0, "", fmt.Errorf("%w: truncated response header", ErrProtocol)
	}
	if op != wantOp && op != OpErr {
		return 0, "", fmt.Errorf("%w: response op %#x for request %#x", ErrProtocol, op, wantOp)
	}
	if status == StatusOK {
		if op == OpErr {
			return 0, "", fmt.Errorf("%w: ok status on error op", ErrProtocol)
		}
		return StatusOK, "", nil
	}
	raw := r.Take(int(r.U32()))
	if r.bad {
		return 0, "", fmt.Errorf("%w: truncated error message", ErrProtocol)
	}
	if op == OpErr {
		return 0, "", fmt.Errorf("%w: peer refused request: %s", ErrProtocol, raw)
	}
	return status, string(raw), nil
}
