package shardnet

import (
	"encoding/binary"
	"errors"
	"fmt"

	"gpudpf/internal/engine"
	"gpudpf/internal/frame"
	"gpudpf/internal/serving"
)

// The framing itself — length prefix, caps, the bounds-checked body cursor,
// key and write batches, the error response — is internal/frame; this file
// is the op bodies on top, one codec per direction for both op sets.

var le = binary.LittleEndian

// maxInt bounds a u64 off the wire that must fit the receiver's int.
const maxInt = uint64(^uint(0) >> 1)

// statusOverloaded is the named failure status of a request shed by
// admission control; a Client maps it back to serving.ErrOverloaded, so a
// load generator counts sheds with errors.Is instead of parsing messages.
const statusOverloaded byte = 2

// request is one parsed request frame.
type request struct {
	op     byte
	keys   [][]byte          // answer, answer-range; sub-slices of the frame buffer
	lo, hi uint64            // answer-range
	epoch  uint64            // prepare, commit, abort, snapshot chunk
	writes []engine.RowWrite // update-batch, prepare
	off    uint64            // snapshot chunk: word offset into the held range
	max    uint32            // snapshot chunk: word count cap for the reply
	hello  hello             // hello
}

// appendRequest encodes req as a frame body. A key batch that cannot be
// framed — no keys, empty keys, keys of mixed widths — is an error, and
// dst comes back as it was.
func appendRequest(dst []byte, req *request) ([]byte, error) {
	start := len(dst)
	dst = append(dst, req.op)
	switch req.op {
	case opAnswer, opAnswerRange:
		if req.op == opAnswerRange {
			dst = le.AppendUint64(le.AppendUint64(dst, req.lo), req.hi)
		}
		out, err := frame.AppendKeys(dst, req.keys)
		if err != nil {
			return dst[:start], err
		}
		return out, nil
	case opUpdateBatch:
		dst = frame.AppendWrites(dst, req.writes)
	case opPrepare:
		dst = frame.AppendWrites(le.AppendUint64(dst, req.epoch), req.writes)
	case opCommit, opAbort:
		dst = le.AppendUint64(dst, req.epoch)
	case opSnapChunk:
		dst = le.AppendUint64(le.AppendUint64(dst, req.epoch), req.off)
		dst = le.AppendUint32(dst, req.max)
	case opHello:
		dst = appendHello(dst, &req.hello)
	}
	return dst, nil
}

// parseRequest decodes one request frame body, refusing key batches over
// maxKeys before allocating for them. Key slices alias the frame buffer;
// the caller must finish with them before reusing it.
func parseRequest(body []byte, maxKeys int) (*request, error) {
	req := new(request)
	if err := parseRequestInto(body, maxKeys, req); err != nil {
		return nil, err
	}
	return req, nil
}

// parseRequestInto is parseRequest into a connection's reused request,
// whose key slice it keeps.
func parseRequestInto(body []byte, maxKeys int, req *request) error {
	var r frame.Reader
	r.Reset(body)
	*req = request{op: r.U8(), keys: req.keys[:0]}
	var err error
	switch req.op {
	case opAnswer:
		req.keys, err = frame.ParseKeys(&r, maxKeys, req.keys)
	case opAnswerRange:
		req.lo, req.hi = r.U64(), r.U64()
		if r.Bad() {
			return fmt.Errorf("%w: truncated row range", ErrProtocol)
		}
		req.keys, err = frame.ParseKeys(&r, maxKeys, req.keys)
	case opUpdateBatch:
		req.writes, err = frame.ParseWrites(&r)
	case opPrepare:
		if req.epoch = r.U64(); r.Bad() {
			return fmt.Errorf("%w: truncated prepare epoch", ErrProtocol)
		}
		req.writes, err = frame.ParseWrites(&r)
	case opCommit, opAbort:
		if req.epoch = r.U64(); r.Bad() {
			return fmt.Errorf("%w: truncated epoch", ErrProtocol)
		}
	case opSnapChunk:
		req.epoch, req.off, req.max = r.U64(), r.U64(), r.U32()
		if r.Bad() {
			return fmt.Errorf("%w: truncated snapshot chunk request", ErrProtocol)
		}
	case opHello:
		req.hello, err = parseHello(&r)
	case opCounters, opEpoch, opPing, opSnapMeta, opStats:
		// no payload
	default:
		return fmt.Errorf("%w: unknown opcode %#x", ErrProtocol, req.op)
	}
	if err != nil {
		return err
	}
	if r.Remaining() != 0 {
		return fmt.Errorf("%w: %d trailing bytes after %#x request", ErrProtocol, r.Remaining(), req.op)
	}
	return nil
}

// Responses. Each encoder writes op, frame.StatusOK and the payload; each
// decoder reads the payload behind a header frame.ResponseHeader stripped.

// appendErr encodes a request that was understood and failed.
func appendErr(dst []byte, op byte, err error) []byte {
	status := frame.StatusErr
	if errors.Is(err, serving.ErrOverloaded) {
		status = statusOverloaded
	}
	return frame.AppendErr(dst, op, status, err.Error())
}

// appendWords encodes the fixed-width payloads: an installed or current
// epoch, the serving stats, the counters, the snapshot meta, and — with no
// words — prepare, commit, abort and ping's bare OK.
func appendWords(dst []byte, op byte, words ...uint64) []byte {
	dst = append(dst, op, frame.StatusOK)
	for _, w := range words {
		dst = le.AppendUint64(dst, w)
	}
	return dst
}

func parseWords(r *frame.Reader, words ...*uint64) error {
	for _, w := range words {
		*w = r.U64()
	}
	if r.Bad() || r.Remaining() != 0 {
		return fmt.Errorf("%w: malformed %d-word response", ErrProtocol, len(words))
	}
	return nil
}

// appendAnswers encodes an answer (0x01) response: the n × lanes shape,
// then the words. The caller guarantees at least one answer.
func appendAnswers(dst []byte, answers [][]uint32) []byte {
	dst = append(dst, opAnswer, frame.StatusOK)
	dst = le.AppendUint32(le.AppendUint32(dst, uint32(len(answers))), uint32(len(answers[0])))
	return frame.AppendMatrix(dst, answers)
}

func parseAnswers(r *frame.Reader, wantKeys int) ([][]uint32, error) {
	n, lanes := r.U32(), r.U32()
	if r.Bad() {
		return nil, fmt.Errorf("%w: truncated answer header", ErrProtocol)
	}
	return frame.ParseMatrix(r, n, lanes, wantKeys)
}

// epochFlag is the answer-range response's flags byte. A Member always
// names the epoch its partials were computed at, so the byte is always
// this value; it stays on the wire to keep the frame as it was.
const epochFlag byte = 1

// appendRangeAnswers encodes an answer-range (0x02) response: the shape,
// the flags byte, the epoch the partials were computed at, the words.
func appendRangeAnswers(dst []byte, answers [][]uint32, lanes int, epoch uint64) []byte {
	dst = append(dst, opAnswerRange, frame.StatusOK)
	dst = le.AppendUint32(le.AppendUint32(dst, uint32(len(answers))), uint32(lanes))
	dst = le.AppendUint64(append(dst, epochFlag), epoch)
	return frame.AppendMatrix(dst, answers)
}

func parseRangeAnswers(r *frame.Reader, wantKeys int) ([][]uint32, uint64, error) {
	n, lanes, flags, epoch := r.U32(), r.U32(), r.U8(), r.U64()
	if r.Bad() {
		return nil, 0, fmt.Errorf("%w: truncated answer header", ErrProtocol)
	}
	if flags != epochFlag {
		return nil, 0, fmt.Errorf("%w: answer flags %#x", ErrProtocol, flags)
	}
	answers, err := frame.ParseMatrix(r, n, lanes, wantKeys)
	return answers, epoch, err
}

// checkRange refuses a held row range that cannot be one: u64 bounds that
// wrap the receiver's int, or lo past hi.
func checkRange(what string, lo, hi uint64) error {
	if lo > maxInt || hi > maxInt || lo > hi {
		return fmt.Errorf("%w: %s row range [%d,%d)", ErrProtocol, what, lo, hi)
	}
	return nil
}

// appendSnapChunk / parseSnapChunk encode one snapshot-chunk response.
// Every frame restates the epoch, the held row range and the word offset
// it starts at, so a resumed or interleaved transfer can never be stitched
// from mismatched frames. An empty word list past the end of the buffer
// terminates the stream.
func appendSnapChunk(dst []byte, epoch uint64, lo, hi int, off uint64, words []uint32) []byte {
	dst = appendWords(dst, opSnapChunk, epoch, uint64(lo), uint64(hi), off)
	dst = le.AppendUint32(dst, uint32(len(words)))
	for _, v := range words {
		dst = le.AppendUint32(dst, v)
	}
	return dst
}

func parseSnapChunk(r *frame.Reader) (epoch uint64, lo, hi int, off uint64, words []uint32, err error) {
	epoch = r.U64()
	loWire, hiWire := r.U64(), r.U64()
	off = r.U64()
	count := r.U32()
	if r.Bad() {
		return 0, 0, 0, 0, nil, fmt.Errorf("%w: truncated snapshot chunk header", ErrProtocol)
	}
	if err := checkRange("snapshot chunk", loWire, hiWire); err != nil {
		return 0, 0, 0, 0, nil, err
	}
	// uint64 math like frame.ParseMatrix: a count chosen so count·4 wraps
	// int on 32-bit platforms must not dodge the size check.
	if uint64(count)*4 != uint64(r.Remaining()) {
		return 0, 0, 0, 0, nil, fmt.Errorf("%w: snapshot chunk declares %d words, frame carries %d bytes", ErrProtocol, count, r.Remaining())
	}
	words = make([]uint32, count)
	for i := range words {
		words[i] = r.U32()
	}
	return epoch, int(loWire), int(hiWire), off, words, nil
}

// appendWelcome encodes a hello's successful response: the server's
// configuration.
func appendWelcome(dst []byte, w *hello) []byte {
	return appendHello(append(dst, opHello, frame.StatusOK), w)
}
