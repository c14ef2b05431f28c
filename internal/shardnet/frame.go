package shardnet

import (
	"encoding/binary"
	"errors"
	"fmt"

	"gpudpf/internal/engine"
	"gpudpf/internal/frame"
	"gpudpf/internal/gpu"
)

// The framing itself — length prefix, caps, the bounds-checked body cursor,
// key and write batches, the error response — is internal/frame, shared
// with the client protocol; this file is the shardnet RPC bodies on top.

// RPC opcodes: the first body byte of every request, echoed in the
// response (frame.OpErr answers a frame no op was ever parsed from). 0x06+
// are protocol v2: the epoch-versioned update path. 0x0b+ are protocol v3:
// the liveness probe and the snapshot-transfer (heal) path. 0x03 was the
// single-row update; it is refused as an unknown opcode.
const (
	opAnswer      byte = 0x01
	opAnswerRange byte = 0x02
	opShape       byte = 0x04
	opCounters    byte = 0x05
	opUpdateBatch byte = 0x06
	opEpoch       byte = 0x07
	opPrepare     byte = 0x08
	opCommit      byte = 0x09
	opAbort       byte = 0x0a
	opPing        byte = 0x0b
	opSnapMeta    byte = 0x0c
	opSnapChunk   byte = 0x0d
)

// ErrFrameTooLarge is the named protocol error for a frame whose declared
// length exceeds the connection's cap; it is raised before any payload
// allocation, and a node answers it with an error frame before hanging up.
var ErrFrameTooLarge = frame.ErrTooLarge

// ErrProtocol is wrapped by every malformed-frame error, so transports can
// distinguish a broken peer from a failing backend.
var ErrProtocol = frame.ErrProtocol

// rpcRequest is one parsed request frame.
type rpcRequest struct {
	op     byte
	keys   [][]byte          // Answer, AnswerRange; sub-slices of the frame buffer
	lo, hi uint64            // AnswerRange
	epoch  uint64            // Prepare, Commit, Abort, SnapChunk
	writes []engine.RowWrite // UpdateBatch, Prepare
	off    uint64            // SnapChunk: word offset into the held range
	max    uint32            // SnapChunk: word count cap for the reply
}

// appendRequest encodes req as a frame body.
func appendRequest(dst []byte, req *rpcRequest) []byte {
	dst = append(dst, req.op)
	switch req.op {
	case opAnswer:
		dst = frame.AppendKeys(dst, req.keys)
	case opAnswerRange:
		dst = binary.LittleEndian.AppendUint64(dst, req.lo)
		dst = binary.LittleEndian.AppendUint64(dst, req.hi)
		dst = frame.AppendKeys(dst, req.keys)
	case opUpdateBatch:
		dst = frame.AppendWrites(dst, req.writes)
	case opPrepare:
		dst = binary.LittleEndian.AppendUint64(dst, req.epoch)
		dst = frame.AppendWrites(dst, req.writes)
	case opCommit, opAbort:
		dst = binary.LittleEndian.AppendUint64(dst, req.epoch)
	case opSnapChunk:
		dst = binary.LittleEndian.AppendUint64(dst, req.epoch)
		dst = binary.LittleEndian.AppendUint64(dst, req.off)
		dst = binary.LittleEndian.AppendUint32(dst, req.max)
	}
	return dst
}

// parseRequest decodes one request frame body, refusing key batches over
// maxKeys before allocating for them. Key slices alias the frame buffer;
// the caller must finish with them before reusing it.
func parseRequest(body []byte, maxKeys int) (*rpcRequest, error) {
	r := frame.NewReader(body)
	req := &rpcRequest{op: r.U8()}
	var err error
	switch req.op {
	case opAnswer:
		if req.keys, err = frame.ParseKeys(r, maxKeys); err != nil {
			return nil, err
		}
	case opAnswerRange:
		req.lo, req.hi = r.U64(), r.U64()
		if r.Bad() {
			return nil, fmt.Errorf("%w: truncated row range", ErrProtocol)
		}
		if req.keys, err = frame.ParseKeys(r, maxKeys); err != nil {
			return nil, err
		}
	case opUpdateBatch:
		if req.writes, err = frame.ParseWrites(r); err != nil {
			return nil, err
		}
	case opPrepare:
		req.epoch = r.U64()
		if r.Bad() {
			return nil, fmt.Errorf("%w: truncated prepare epoch", ErrProtocol)
		}
		if req.writes, err = frame.ParseWrites(r); err != nil {
			return nil, err
		}
	case opCommit, opAbort:
		req.epoch = r.U64()
		if r.Bad() {
			return nil, fmt.Errorf("%w: truncated epoch", ErrProtocol)
		}
	case opSnapChunk:
		req.epoch, req.off = r.U64(), r.U64()
		req.max = r.U32()
		if r.Bad() {
			return nil, fmt.Errorf("%w: truncated snapshot chunk request", ErrProtocol)
		}
	case opShape, opCounters, opEpoch, opPing, opSnapMeta:
		// no payload
	default:
		return nil, fmt.Errorf("%w: unknown opcode %#x", ErrProtocol, req.op)
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after %#x request", ErrProtocol, r.Remaining(), req.op)
	}
	return req, nil
}

// appendErrResponse encodes a failure response for op.
func appendErrResponse(dst []byte, op byte, msg string) []byte {
	return frame.AppendErr(dst, op, frame.StatusErr, msg)
}

// answerHasEpoch flags an answer response whose partials name the table
// epoch they were computed against (the member's ok; a front refuses a
// partial without it).
const answerHasEpoch byte = 1

// appendAnswers encodes a successful Answer/AnswerRange response: the
// batch shape, the flagged epoch the partials were computed at, then the
// shares.
func appendAnswers(dst []byte, op byte, answers [][]uint32, lanes int, epoch uint64, hasEpoch bool) []byte {
	dst = append(dst, op, frame.StatusOK)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(answers)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(lanes))
	var flags byte
	if hasEpoch {
		flags = answerHasEpoch
	}
	dst = append(dst, flags)
	dst = binary.LittleEndian.AppendUint64(dst, epoch)
	return frame.AppendMatrix(dst, answers)
}

// responseHeader strips op+status and surfaces a remote failure: for a
// response that is not frame.StatusOK it returns remoteErr non-nil with the
// node's message. wantOp is the request's op.
func responseHeader(r *frame.Reader, wantOp byte) (remoteErr error, err error) {
	status, msg, err := frame.ResponseHeader(r, wantOp)
	if err != nil || status == frame.StatusOK {
		return nil, err
	}
	return errors.New(msg), nil
}

// parseAnswers decodes an Answer/AnswerRange response body, returning the
// epoch the node computed the shares at (hasEpoch as the node flagged it).
func parseAnswers(body []byte, wantOp byte, wantKeys int) (answers [][]uint32, epoch uint64, hasEpoch bool, err error) {
	r := frame.NewReader(body)
	remoteErr, err := responseHeader(r, wantOp)
	if err != nil {
		return nil, 0, false, err
	}
	if remoteErr != nil {
		return nil, 0, false, remoteErr
	}
	nWire, lanesWire := r.U32(), r.U32()
	flags := r.U8()
	epoch = r.U64()
	if r.Bad() {
		return nil, 0, false, fmt.Errorf("%w: truncated answer header", ErrProtocol)
	}
	if flags&^answerHasEpoch != 0 {
		return nil, 0, false, fmt.Errorf("%w: unknown answer flags %#x", ErrProtocol, flags)
	}
	hasEpoch = flags&answerHasEpoch != 0
	if !hasEpoch && epoch != 0 {
		return nil, 0, false, fmt.Errorf("%w: epoch %d on an epoch-less answer", ErrProtocol, epoch)
	}
	answers, err = frame.ParseMatrix(r, nWire, lanesWire, wantKeys)
	return answers, epoch, hasEpoch, err
}

// appendEpochResp / parseEpochResp encode the epoch-bearing success
// responses (UpdateBatch's new epoch, Epoch's current one).
func appendEpochResp(dst []byte, op byte, epoch uint64) []byte {
	dst = append(dst, op, frame.StatusOK)
	return binary.LittleEndian.AppendUint64(dst, epoch)
}

func parseEpochResp(body []byte, wantOp byte) (uint64, error) {
	r := frame.NewReader(body)
	remoteErr, err := responseHeader(r, wantOp)
	if err != nil {
		return 0, err
	}
	if remoteErr != nil {
		return 0, remoteErr
	}
	epoch := r.U64()
	if r.Bad() || r.Remaining() != 0 {
		return 0, fmt.Errorf("%w: malformed epoch response", ErrProtocol)
	}
	return epoch, nil
}

// appendShape / parseShape encode the Shape response.
func appendShape(dst []byte, rows, lanes int) []byte {
	dst = append(dst, opShape, frame.StatusOK)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(rows))
	return binary.LittleEndian.AppendUint32(dst, uint32(lanes))
}

func parseShape(body []byte) (rows, lanes int, err error) {
	r := frame.NewReader(body)
	remoteErr, err := responseHeader(r, opShape)
	if err != nil {
		return 0, 0, err
	}
	if remoteErr != nil {
		return 0, 0, remoteErr
	}
	rows, lanes = int(r.U64()), int(r.U32())
	if r.Bad() || r.Remaining() != 0 {
		return 0, 0, fmt.Errorf("%w: malformed shape response", ErrProtocol)
	}
	return rows, lanes, nil
}

// appendCounters / parseCounters encode the Counters response.
func appendCounters(dst []byte, s gpu.Stats) []byte {
	dst = append(dst, opCounters, frame.StatusOK)
	for _, v := range []int64{s.PRFBlocks, s.ReadBytes, s.WriteBytes, s.Launches, s.PeakMemBytes} {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
	}
	return dst
}

func parseCounters(body []byte) (gpu.Stats, error) {
	r := frame.NewReader(body)
	remoteErr, err := responseHeader(r, opCounters)
	if err != nil {
		return gpu.Stats{}, err
	}
	if remoteErr != nil {
		return gpu.Stats{}, remoteErr
	}
	s := gpu.Stats{
		PRFBlocks:    int64(r.U64()),
		ReadBytes:    int64(r.U64()),
		WriteBytes:   int64(r.U64()),
		Launches:     int64(r.U64()),
		PeakMemBytes: int64(r.U64()),
	}
	if r.Bad() || r.Remaining() != 0 {
		return gpu.Stats{}, fmt.Errorf("%w: malformed counters response", ErrProtocol)
	}
	return s, nil
}

// appendSnapMeta / parseSnapMeta encode the SnapshotMeta response: the
// node's pinned snapshot epoch, its effective epoch (>= snapshot epoch
// when epochs were burned), and the global row range it holds — the range
// SnapshotChunk offsets are relative to.
func appendSnapMeta(dst []byte, snapEpoch, effEpoch uint64, lo, hi int) []byte {
	dst = append(dst, opSnapMeta, frame.StatusOK)
	dst = binary.LittleEndian.AppendUint64(dst, snapEpoch)
	dst = binary.LittleEndian.AppendUint64(dst, effEpoch)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(lo))
	return binary.LittleEndian.AppendUint64(dst, uint64(hi))
}

func parseSnapMeta(body []byte) (snapEpoch, effEpoch uint64, lo, hi int, err error) {
	r := frame.NewReader(body)
	remoteErr, err := responseHeader(r, opSnapMeta)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	if remoteErr != nil {
		return 0, 0, 0, 0, remoteErr
	}
	snapEpoch, effEpoch = r.U64(), r.U64()
	loWire, hiWire := r.U64(), r.U64()
	if r.Bad() || r.Remaining() != 0 {
		return 0, 0, 0, 0, fmt.Errorf("%w: malformed snapshot meta response", ErrProtocol)
	}
	// Row bounds travel as u64; values that wrap int on the receiver are a
	// lie regardless of the sender's word size.
	const maxInt = uint64(^uint(0) >> 1)
	if loWire > maxInt || hiWire > maxInt || loWire > hiWire {
		return 0, 0, 0, 0, fmt.Errorf("%w: snapshot meta row range [%d,%d)", ErrProtocol, loWire, hiWire)
	}
	return snapEpoch, effEpoch, int(loWire), int(hiWire), nil
}

// appendSnapChunk / parseSnapChunk encode one SnapshotChunk response. Every
// frame restates the epoch, the held row range and the word offset it
// starts at, so a resumed or interleaved transfer can never be stitched
// from mismatched frames. An empty word list past the end of the buffer
// terminates the stream.
func appendSnapChunk(dst []byte, epoch uint64, lo, hi int, off uint64, words []uint32) []byte {
	dst = append(dst, opSnapChunk, frame.StatusOK)
	dst = binary.LittleEndian.AppendUint64(dst, epoch)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(lo))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(hi))
	dst = binary.LittleEndian.AppendUint64(dst, off)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(words)))
	for _, v := range words {
		dst = binary.LittleEndian.AppendUint32(dst, v)
	}
	return dst
}

func parseSnapChunk(body []byte) (epoch uint64, lo, hi int, off uint64, words []uint32, err error) {
	r := frame.NewReader(body)
	remoteErr, err := responseHeader(r, opSnapChunk)
	if err != nil {
		return 0, 0, 0, 0, nil, err
	}
	if remoteErr != nil {
		return 0, 0, 0, 0, nil, remoteErr
	}
	epoch = r.U64()
	loWire, hiWire := r.U64(), r.U64()
	off = r.U64()
	count := r.U32()
	if r.Bad() {
		return 0, 0, 0, 0, nil, fmt.Errorf("%w: truncated snapshot chunk header", ErrProtocol)
	}
	const maxInt = uint64(^uint(0) >> 1)
	if loWire > maxInt || hiWire > maxInt || loWire > hiWire {
		return 0, 0, 0, 0, nil, fmt.Errorf("%w: snapshot chunk row range [%d,%d)", ErrProtocol, loWire, hiWire)
	}
	// uint64 math like frame.ParseMatrix: a count chosen so count·4 wraps int on
	// 32-bit platforms must not dodge the size check.
	if uint64(count)*4 != uint64(r.Remaining()) {
		return 0, 0, 0, 0, nil, fmt.Errorf("%w: snapshot chunk declares %d words, frame carries %d bytes", ErrProtocol, count, r.Remaining())
	}
	words = make([]uint32, count)
	for i := range words {
		words[i] = r.U32()
	}
	return epoch, int(loWire), int(hiWire), off, words, nil
}

// appendOK encodes a payload-free success (Prepare, Commit, Abort, Ping).
func appendOK(dst []byte, op byte) []byte { return append(dst, op, frame.StatusOK) }

// parseOK decodes a payload-free response.
func parseOK(body []byte, wantOp byte) error {
	r := frame.NewReader(body)
	remoteErr, err := responseHeader(r, wantOp)
	if err != nil {
		return err
	}
	if remoteErr != nil {
		return remoteErr
	}
	if r.Remaining() != 0 {
		return fmt.Errorf("%w: %d trailing bytes in %#x response", ErrProtocol, r.Remaining(), wantOp)
	}
	return nil
}
