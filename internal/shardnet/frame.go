package shardnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"gpudpf/internal/engine"
	"gpudpf/internal/gpu"
	"gpudpf/internal/strategy"
)

// RPC opcodes: the first body byte of every request, echoed in the
// response. opErr is response-only, for failures where no request op was
// ever parsed (an unreadable or oversized frame). 0x06+ are protocol v2:
// the epoch-versioned update path. 0x0b+ are protocol v3: the liveness
// probe and the snapshot-transfer (heal) path.
const (
	opAnswer      byte = 0x01
	opAnswerRange byte = 0x02
	opUpdate      byte = 0x03
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
	opErr         byte = 0xff
)

// response status byte.
const (
	statusOK  byte = 0
	statusErr byte = 1
)

// ErrFrameTooLarge is the named protocol error for a frame whose declared
// length exceeds the connection's cap; it is raised before any payload
// allocation, and a node answers it with an error frame before hanging up.
var ErrFrameTooLarge = errors.New("shardnet: frame exceeds size cap")

// ErrProtocol is wrapped by every malformed-frame error, so transports can
// distinguish a broken peer from a failing backend.
var ErrProtocol = errors.New("shardnet: protocol error")

// frameHeader is the size of a frame's length prefix: uint32 little-endian
// byte count of the body that follows.
const frameHeader = 4

// beginFrame resets buf to an empty frame: room for the length prefix, so
// the encoders append the body behind it and writeFrame sends header and
// body as one Write on any net.Conn — a net.Buffers pair is one writev only
// on a bare *net.TCPConn and two writes behind any wrapper.
func beginFrame(buf []byte) []byte { return append(buf[:0], 0, 0, 0, 0) }

// writeFrame fills in the length prefix of a frame built on beginFrame and
// sends it. Connections are lockstep, so nothing interleaves.
func writeFrame(w io.Writer, frame []byte, max int) error {
	body := len(frame) - frameHeader
	if body > max {
		return fmt.Errorf("%w: %d-byte frame, cap %d", ErrFrameTooLarge, body, max)
	}
	binary.LittleEndian.PutUint32(frame, uint32(body))
	_, err := w.Write(frame)
	return err
}

// readFrame reads one frame into *buf (grown as needed, reused across
// calls) and returns the body. A declared length over max fails with
// ErrFrameTooLarge before any allocation. On a connection r is its
// bufio.Reader, so header and body normally cost one read between them.
func readFrame(r io.Reader, max int, buf *[]byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	// Compare in uint64 BEFORE converting: on 32-bit platforms a hostile
	// length near 2^32 would wrap int negative and dodge the cap check
	// straight into a slice-bounds panic.
	declared := binary.LittleEndian.Uint32(hdr[:])
	if uint64(declared) > uint64(max) {
		return nil, fmt.Errorf("%w: peer declared a %d-byte frame, cap is %d", ErrFrameTooLarge, declared, max)
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

// wireReader is a bounds-checked cursor over one frame body.
type wireReader struct {
	b   []byte
	off int
	bad bool
}

func (r *wireReader) remaining() int { return len(r.b) - r.off }

func (r *wireReader) u8() byte {
	if r.off+1 > len(r.b) {
		r.bad = true
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *wireReader) u32() uint32 {
	if r.off+4 > len(r.b) {
		r.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *wireReader) u64() uint64 {
	if r.off+8 > len(r.b) {
		r.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *wireReader) take(n int) []byte {
	if n < 0 || r.off+n > len(r.b) {
		r.bad = true
		return nil
	}
	v := r.b[r.off : r.off+n]
	r.off += n
	return v
}

// rpcRequest is one parsed request frame.
type rpcRequest struct {
	op     byte
	keys   [][]byte          // Answer, AnswerRange; sub-slices of the frame buffer
	lo, hi uint64            // AnswerRange
	row    uint64            // Update
	vals   []uint32          // Update
	epoch  uint64            // Prepare, Commit, Abort, SnapChunk
	writes []engine.RowWrite // UpdateBatch, Prepare
	off    uint64            // SnapChunk: word offset into the held range
	max    uint32            // SnapChunk: word count cap for the reply
}

// appendKeys encodes a key batch: count, then length-prefixed key bytes.
func appendKeys(dst []byte, keys [][]byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(keys)))
	for _, k := range keys {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(k)))
		dst = append(dst, k...)
	}
	return dst
}

// appendWrites encodes an update-write batch: count, then per write the
// row, lane count and values.
func appendWrites(dst []byte, writes []engine.RowWrite) []byte {
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

// appendRequest encodes req as a frame body.
func appendRequest(dst []byte, req *rpcRequest) []byte {
	dst = append(dst, req.op)
	switch req.op {
	case opAnswer:
		dst = appendKeys(dst, req.keys)
	case opAnswerRange:
		dst = binary.LittleEndian.AppendUint64(dst, req.lo)
		dst = binary.LittleEndian.AppendUint64(dst, req.hi)
		dst = appendKeys(dst, req.keys)
	case opUpdate:
		dst = binary.LittleEndian.AppendUint64(dst, req.row)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(req.vals)))
		for _, v := range req.vals {
			dst = binary.LittleEndian.AppendUint32(dst, v)
		}
	case opUpdateBatch:
		dst = appendWrites(dst, req.writes)
	case opPrepare:
		dst = binary.LittleEndian.AppendUint64(dst, req.epoch)
		dst = appendWrites(dst, req.writes)
	case opCommit, opAbort:
		dst = binary.LittleEndian.AppendUint64(dst, req.epoch)
	case opSnapChunk:
		dst = binary.LittleEndian.AppendUint64(dst, req.epoch)
		dst = binary.LittleEndian.AppendUint64(dst, req.off)
		dst = binary.LittleEndian.AppendUint32(dst, req.max)
	}
	return dst
}

// parseKeys decodes a key batch, with every declared count checked against
// the bytes actually present — and the caller's batch cap — BEFORE
// anything is allocated for it: a hostile frame of millions of zero-length
// keys must not buy a slice-header allocation bomb.
func parseKeys(r *wireReader, maxKeys int) ([][]byte, error) {
	count := r.u32()
	if r.bad {
		return nil, fmt.Errorf("%w: truncated key count", ErrProtocol)
	}
	// Each key costs at least its 4-byte length prefix, so a count beyond
	// remaining/4 is a lie regardless of content. Compare in uint64 so the
	// check cannot be dodged by a count that overflows int on 32-bit
	// platforms.
	if uint64(count) > uint64(r.remaining()/4)+1 {
		return nil, fmt.Errorf("%w: %d keys declared in a %d-byte frame", ErrProtocol, count, len(r.b))
	}
	if uint64(count) > uint64(maxKeys) {
		return nil, fmt.Errorf("%w: batch of %d keys exceeds the %d-key cap", ErrProtocol, count, maxKeys)
	}
	n := int(count)
	keys := make([][]byte, n)
	for i := range keys {
		kl := int(r.u32())
		keys[i] = r.take(kl)
		if r.bad {
			return nil, fmt.Errorf("%w: truncated key %d", ErrProtocol, i)
		}
	}
	return keys, nil
}

// parseWrites decodes an update-write batch with the same
// declared-vs-present discipline as parseKeys: every count is checked
// against the bytes actually in the frame BEFORE anything is allocated
// for it.
func parseWrites(r *wireReader) ([]engine.RowWrite, error) {
	count := r.u32()
	if r.bad {
		return nil, fmt.Errorf("%w: truncated write count", ErrProtocol)
	}
	// Each write costs at least its 12-byte row+lanes header, so a count
	// beyond remaining/12 is a lie regardless of content. uint64 math so
	// the check cannot be dodged on 32-bit platforms.
	if uint64(count) > uint64(r.remaining()/12)+1 {
		return nil, fmt.Errorf("%w: %d writes declared in a %d-byte frame", ErrProtocol, count, len(r.b))
	}
	writes := make([]engine.RowWrite, count)
	for i := range writes {
		writes[i].Row = r.u64()
		lanes := r.u32()
		if r.bad {
			return nil, fmt.Errorf("%w: truncated write %d header", ErrProtocol, i)
		}
		if uint64(lanes)*4 > uint64(r.remaining()) {
			return nil, fmt.Errorf("%w: write %d declares %d lanes, frame carries %d bytes", ErrProtocol, i, lanes, r.remaining())
		}
		vals := make([]uint32, lanes)
		for j := range vals {
			vals[j] = r.u32()
		}
		if r.bad {
			return nil, fmt.Errorf("%w: truncated write %d values", ErrProtocol, i)
		}
		writes[i].Vals = vals
	}
	return writes, nil
}

// parseRequest decodes one request frame body, refusing key batches over
// maxKeys before allocating for them. Key slices alias the frame buffer;
// the caller must finish with them before reusing it.
func parseRequest(body []byte, maxKeys int) (*rpcRequest, error) {
	r := &wireReader{b: body}
	req := &rpcRequest{op: r.u8()}
	var err error
	switch req.op {
	case opAnswer:
		if req.keys, err = parseKeys(r, maxKeys); err != nil {
			return nil, err
		}
	case opAnswerRange:
		req.lo, req.hi = r.u64(), r.u64()
		if r.bad {
			return nil, fmt.Errorf("%w: truncated row range", ErrProtocol)
		}
		if req.keys, err = parseKeys(r, maxKeys); err != nil {
			return nil, err
		}
	case opUpdate:
		req.row = r.u64()
		count := r.u32()
		if r.bad {
			return nil, fmt.Errorf("%w: truncated update header", ErrProtocol)
		}
		// uint64 math for the same 32-bit overflow reason as parseKeys.
		if uint64(count)*4 != uint64(r.remaining()) {
			return nil, fmt.Errorf("%w: update declares %d lanes, frame carries %d bytes", ErrProtocol, count, r.remaining())
		}
		n := int(count)
		req.vals = make([]uint32, n)
		for i := range req.vals {
			req.vals[i] = r.u32()
		}
	case opUpdateBatch:
		if req.writes, err = parseWrites(r); err != nil {
			return nil, err
		}
	case opPrepare:
		req.epoch = r.u64()
		if r.bad {
			return nil, fmt.Errorf("%w: truncated prepare epoch", ErrProtocol)
		}
		if req.writes, err = parseWrites(r); err != nil {
			return nil, err
		}
	case opCommit, opAbort:
		req.epoch = r.u64()
		if r.bad {
			return nil, fmt.Errorf("%w: truncated epoch", ErrProtocol)
		}
	case opSnapChunk:
		req.epoch, req.off = r.u64(), r.u64()
		req.max = r.u32()
		if r.bad {
			return nil, fmt.Errorf("%w: truncated snapshot chunk request", ErrProtocol)
		}
	case opShape, opCounters, opEpoch, opPing, opSnapMeta:
		// no payload
	default:
		return nil, fmt.Errorf("%w: unknown opcode %#x", ErrProtocol, req.op)
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after %#x request", ErrProtocol, r.remaining(), req.op)
	}
	return req, nil
}

// appendErrResponse encodes a failure response for op.
func appendErrResponse(dst []byte, op byte, msg string) []byte {
	dst = append(dst, op, statusErr)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(msg)))
	return append(dst, msg...)
}

// answerHasEpoch flags an answer response whose partials were computed
// against a pinned table epoch (a node fronting a non-epoch-versioned
// backend clears it).
const answerHasEpoch byte = 1

// appendAnswers encodes a successful Answer/AnswerRange response: the
// batch shape, the epoch the partials were computed at (flagged, since a
// node may front a backend with no epochs), then the shares.
func appendAnswers(dst []byte, op byte, answers [][]uint32, lanes int, epoch uint64, hasEpoch bool) []byte {
	dst = append(dst, op, statusOK)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(answers)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(lanes))
	var flags byte
	if hasEpoch {
		flags = answerHasEpoch
	}
	dst = append(dst, flags)
	dst = binary.LittleEndian.AppendUint64(dst, epoch)
	for _, a := range answers {
		for _, v := range a {
			dst = binary.LittleEndian.AppendUint32(dst, v)
		}
	}
	return dst
}

// responseHeader strips op+status and surfaces a remote failure: for
// statusErr responses it returns remoteErr non-nil with the node's
// message. wantOp is the request's op (opErr responses match any).
func responseHeader(r *wireReader, wantOp byte) (remoteErr error, err error) {
	op, status := r.u8(), r.u8()
	if r.bad {
		return nil, fmt.Errorf("%w: truncated response header", ErrProtocol)
	}
	if op != wantOp && op != opErr {
		return nil, fmt.Errorf("%w: response op %#x for request %#x", ErrProtocol, op, wantOp)
	}
	if status == statusOK {
		if op == opErr {
			return nil, fmt.Errorf("%w: ok status on error op", ErrProtocol)
		}
		return nil, nil
	}
	ml := int(r.u32())
	msg := r.take(ml)
	if r.bad {
		return nil, fmt.Errorf("%w: truncated error message", ErrProtocol)
	}
	if op == opErr {
		// The node refused the frame itself (oversized/unparseable) and is
		// hanging up; classify as a protocol error so the connection is
		// retired, not pooled.
		return nil, fmt.Errorf("%w: node refused request: %s", ErrProtocol, msg)
	}
	return errors.New(string(msg)), nil
}

// parseAnswers decodes an Answer/AnswerRange response body, returning the
// epoch the node computed the shares at (hasEpoch false when the node's
// backend is not epoch-versioned).
func parseAnswers(body []byte, wantOp byte, wantKeys int) (answers [][]uint32, epoch uint64, hasEpoch bool, err error) {
	r := &wireReader{b: body}
	remoteErr, err := responseHeader(r, wantOp)
	if err != nil {
		return nil, 0, false, err
	}
	if remoteErr != nil {
		return nil, 0, false, remoteErr
	}
	nWire, lanesWire := r.u32(), r.u32()
	flags := r.u8()
	epoch = r.u64()
	if r.bad {
		return nil, 0, false, fmt.Errorf("%w: truncated answer header", ErrProtocol)
	}
	if flags&^answerHasEpoch != 0 {
		return nil, 0, false, fmt.Errorf("%w: unknown answer flags %#x", ErrProtocol, flags)
	}
	hasEpoch = flags&answerHasEpoch != 0
	if !hasEpoch && epoch != 0 {
		return nil, 0, false, fmt.Errorf("%w: epoch %d on an epoch-less answer", ErrProtocol, epoch)
	}
	if uint64(nWire) != uint64(wantKeys) {
		return nil, 0, false, fmt.Errorf("%w: %d answers for %d keys", ErrProtocol, nWire, wantKeys)
	}
	// uint64 math like readFrame/parseKeys: a lanes value chosen so
	// n·lanes·4 wraps int on 32-bit platforms must not dodge the size
	// check into a giant NewAnswers allocation.
	if lanesWire == 0 || uint64(nWire)*uint64(lanesWire)*4 != uint64(r.remaining()) {
		return nil, 0, false, fmt.Errorf("%w: %d×%d answers in %d payload bytes", ErrProtocol, nWire, lanesWire, r.remaining())
	}
	n, lanes := int(nWire), int(lanesWire)
	answers = strategy.NewAnswers(n, lanes)
	for _, a := range answers {
		for l := range a {
			a[l] = r.u32()
		}
	}
	return answers, epoch, hasEpoch, nil
}

// appendEpochResp / parseEpochResp encode the epoch-bearing success
// responses (UpdateBatch's new epoch, Epoch's current one).
func appendEpochResp(dst []byte, op byte, epoch uint64) []byte {
	dst = append(dst, op, statusOK)
	return binary.LittleEndian.AppendUint64(dst, epoch)
}

func parseEpochResp(body []byte, wantOp byte) (uint64, error) {
	r := &wireReader{b: body}
	remoteErr, err := responseHeader(r, wantOp)
	if err != nil {
		return 0, err
	}
	if remoteErr != nil {
		return 0, remoteErr
	}
	epoch := r.u64()
	if r.bad || r.remaining() != 0 {
		return 0, fmt.Errorf("%w: malformed epoch response", ErrProtocol)
	}
	return epoch, nil
}

// appendShape / parseShape encode the Shape response.
func appendShape(dst []byte, rows, lanes int) []byte {
	dst = append(dst, opShape, statusOK)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(rows))
	return binary.LittleEndian.AppendUint32(dst, uint32(lanes))
}

func parseShape(body []byte) (rows, lanes int, err error) {
	r := &wireReader{b: body}
	remoteErr, err := responseHeader(r, opShape)
	if err != nil {
		return 0, 0, err
	}
	if remoteErr != nil {
		return 0, 0, remoteErr
	}
	rows, lanes = int(r.u64()), int(r.u32())
	if r.bad || r.remaining() != 0 {
		return 0, 0, fmt.Errorf("%w: malformed shape response", ErrProtocol)
	}
	return rows, lanes, nil
}

// appendCounters / parseCounters encode the Counters response.
func appendCounters(dst []byte, s gpu.Stats) []byte {
	dst = append(dst, opCounters, statusOK)
	for _, v := range []int64{s.PRFBlocks, s.ReadBytes, s.WriteBytes, s.Launches, s.PeakMemBytes} {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
	}
	return dst
}

func parseCounters(body []byte) (gpu.Stats, error) {
	r := &wireReader{b: body}
	remoteErr, err := responseHeader(r, opCounters)
	if err != nil {
		return gpu.Stats{}, err
	}
	if remoteErr != nil {
		return gpu.Stats{}, remoteErr
	}
	s := gpu.Stats{
		PRFBlocks:    int64(r.u64()),
		ReadBytes:    int64(r.u64()),
		WriteBytes:   int64(r.u64()),
		Launches:     int64(r.u64()),
		PeakMemBytes: int64(r.u64()),
	}
	if r.bad || r.remaining() != 0 {
		return gpu.Stats{}, fmt.Errorf("%w: malformed counters response", ErrProtocol)
	}
	return s, nil
}

// appendSnapMeta / parseSnapMeta encode the SnapshotMeta response: the
// node's pinned snapshot epoch, its effective epoch (>= snapshot epoch
// when epochs were burned), and the global row range it holds — the range
// SnapshotChunk offsets are relative to.
func appendSnapMeta(dst []byte, snapEpoch, effEpoch uint64, lo, hi int) []byte {
	dst = append(dst, opSnapMeta, statusOK)
	dst = binary.LittleEndian.AppendUint64(dst, snapEpoch)
	dst = binary.LittleEndian.AppendUint64(dst, effEpoch)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(lo))
	return binary.LittleEndian.AppendUint64(dst, uint64(hi))
}

func parseSnapMeta(body []byte) (snapEpoch, effEpoch uint64, lo, hi int, err error) {
	r := &wireReader{b: body}
	remoteErr, err := responseHeader(r, opSnapMeta)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	if remoteErr != nil {
		return 0, 0, 0, 0, remoteErr
	}
	snapEpoch, effEpoch = r.u64(), r.u64()
	loWire, hiWire := r.u64(), r.u64()
	if r.bad || r.remaining() != 0 {
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
	dst = append(dst, opSnapChunk, statusOK)
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
	r := &wireReader{b: body}
	remoteErr, err := responseHeader(r, opSnapChunk)
	if err != nil {
		return 0, 0, 0, 0, nil, err
	}
	if remoteErr != nil {
		return 0, 0, 0, 0, nil, remoteErr
	}
	epoch = r.u64()
	loWire, hiWire := r.u64(), r.u64()
	off = r.u64()
	count := r.u32()
	if r.bad {
		return 0, 0, 0, 0, nil, fmt.Errorf("%w: truncated snapshot chunk header", ErrProtocol)
	}
	const maxInt = uint64(^uint(0) >> 1)
	if loWire > maxInt || hiWire > maxInt || loWire > hiWire {
		return 0, 0, 0, 0, nil, fmt.Errorf("%w: snapshot chunk row range [%d,%d)", ErrProtocol, loWire, hiWire)
	}
	// uint64 math like parseAnswers: a count chosen so count·4 wraps int on
	// 32-bit platforms must not dodge the size check.
	if uint64(count)*4 != uint64(r.remaining()) {
		return 0, 0, 0, 0, nil, fmt.Errorf("%w: snapshot chunk declares %d words, frame carries %d bytes", ErrProtocol, count, r.remaining())
	}
	words = make([]uint32, count)
	for i := range words {
		words[i] = r.u32()
	}
	return epoch, int(loWire), int(hiWire), off, words, nil
}

// appendOK encodes a payload-free success (Update).
func appendOK(dst []byte, op byte) []byte { return append(dst, op, statusOK) }

// parseOK decodes a payload-free response (Update).
func parseOK(body []byte, wantOp byte) error {
	r := &wireReader{b: body}
	remoteErr, err := responseHeader(r, wantOp)
	if err != nil {
		return err
	}
	if remoteErr != nil {
		return remoteErr
	}
	if r.remaining() != 0 {
		return fmt.Errorf("%w: %d trailing bytes in %#x response", ErrProtocol, r.remaining(), wantOp)
	}
	return nil
}
