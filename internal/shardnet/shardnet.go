// Package shardnet is the stack's one wire protocol: one connection loop
// (Server) and one pooled client (Client). The client-facing transport —
// pir.Serve and pir.Dial — and the shard-node protocol — NewServer and Dial,
// which put an engine.Member on the network so one logical replica can span
// machines — are thin faces over the two.
//
// Every exchange is a length-framed binary frame (internal/frame: a
// little-endian uint32 byte count, then the body; a frame over the
// connection's cap is refused with ErrFrameTooLarge before allocation). A
// request body is an op byte and its payload, a response body op, status
// and payload, one response per request. There is one op space:
//
//   - the client ops — answer 0x01, update-batch 0x06, stats 0x0e — work on
//     any connection, with no hello;
//   - the member ops — answer-range 0x02, counters 0x05, the epoch
//     handshake (epoch, prepare, commit, abort: 0x07-0x0a), ping 0x0b and
//     snapshot streaming 0x0c/0x0d — work only after a hello, and only on a
//     server over an engine.Member. The retired ops are refused as unknown:
//     0x03, the single-row update, and 0x04, the shape query (the welcome
//     states the shape).
//
// The hello (op 0x0f) is one fixed binary frame each way, the same layout
// both directions. It pins what two processes must agree on before a share
// means anything, and a refusal names both values:
//
//   - the protocol version (ProtocolVersion);
//   - the PRF, by name and by construction ID (dpf.PRG.Construction): the
//     dpf key format carries neither, and a new function under an old name
//     (aes128 became fixed-key AES) must not reconstruct garbage;
//   - the early-termination depth keys carry, and the party;
//   - the table's row count.
//
// The depth is no setting: it follows from the row count
// (dpf.DefaultEarly), a server states its table's and a client pinning rows
// sends its rows'. A client refuses a welcome whose depth is not its rows',
// so a peer built with another depth rule is refused at dial.
//
// The welcome also states the server's lane count, the rows it
// authoritatively holds (engine.NewCluster checks each shard's assignment
// against them) and its table epoch. Marshaled DPF keys travel inside
// frames as-is, as one batch of one width (internal/frame): the dpf wire
// format is already versioned and validated, and a served batch is one
// format at one depth, so its keys are one length.
package shardnet

import (
	"bytes"
	"errors"
	"fmt"

	"gpudpf/internal/dpf"
	"gpudpf/internal/frame"
)

// ProtocolVersion is the wire version this build speaks; a hello naming
// any other is refused with both named. Version 4 replaced the gob
// handshake with the binary hello and took in the client ops; version 5
// frames a key batch as one count and one width; version 6 carries only
// the host counters (PRF blocks, table bytes streamed) in the counters
// response. The hello does not pin the dpf key wire version: each key's
// magic names it, and a node refuses a key of any version but
// dpf.ServedWire by name.
const ProtocolVersion = 6

// Frame and batch caps, each checked before anything is allocated for
// what a peer declared.
const (
	// DefaultMaxFrame caps a node's frames both ways unless
	// ServerConfig.MaxFrame says otherwise: far above any real batch (a
	// 512-key batch of 64-lane rows answers in ~128 KiB) while bounding
	// what a hostile peer can make either side buffer.
	DefaultMaxFrame = 16 << 20
	// MaxRequestBytes and MaxResponseBytes cap a front's frames (pir.Serve
	// and pir.Dial): a key is a few hundred bytes, so 8 MiB holds ~20k of
	// them, while answers scale with batch × lanes.
	MaxRequestBytes  = 8 << 20
	MaxResponseBytes = 64 << 20
	// DefaultMaxBatch caps the keys of one request unless
	// ServerConfig.MaxBatch says otherwise: the byte cap alone would let a
	// frame of near-empty keys buy millions of slice headers, key structs
	// and partials before the first key fails to unmarshal.
	DefaultMaxBatch = 4096
)

// ErrFrameTooLarge is the named protocol error for a frame whose declared
// length exceeds the connection's cap.
var ErrFrameTooLarge = frame.ErrTooLarge

// ErrProtocol is wrapped by every malformed-frame error, so transports can
// tell a broken peer from a failing backend.
var ErrProtocol = frame.ErrProtocol

// ErrRequestTooLarge and ErrResponseTooLarge are what a Client returns for
// a request it refused to send and a response it refused to read.
var (
	ErrRequestTooLarge  = errors.New("request exceeds the frame cap")
	ErrResponseTooLarge = errors.New("response exceeds the frame cap")
)

// Opcodes: the first body byte of every request, echoed in its response
// (frame.OpErr answers a frame no op was parsed from).
const (
	opAnswer      byte = 0x01
	opAnswerRange byte = 0x02
	opCounters    byte = 0x05
	opUpdateBatch byte = 0x06
	opEpoch       byte = 0x07
	opPrepare     byte = 0x08
	opCommit      byte = 0x09
	opAbort       byte = 0x0a
	opPing        byte = 0x0b
	opSnapMeta    byte = 0x0c
	opSnapChunk   byte = 0x0d
	opStats       byte = 0x0e
	opHello       byte = 0x0f
)

// memberOp reports whether op needs a hello and a member.
func memberOp(op byte) bool {
	return op == opAnswerRange || op >= opCounters && op <= opSnapChunk && op != opUpdateBatch
}

// prgNameLen is the hello's fixed PRF-name field, zero-padded.
const prgNameLen = 16

// hello is the payload of both handshake frames. A client states what it
// pins — zero is "any" for every field but the party, which is always
// pinned, and the ones only a server states (lanes, held range, epoch) — and
// a server what it serves.
type hello struct {
	Version      int
	PRG          string
	Construction uint32
	Early        int
	Party        int
	Rows         int
	Lanes        int
	RowLo, RowHi int
	Epoch        uint64
}

// appendHello encodes h's fixed helloLen-byte payload.
func appendHello(dst []byte, h *hello) []byte {
	dst = le.AppendUint32(dst, uint32(h.Version))
	var name [prgNameLen]byte
	copy(name[:], h.PRG)
	dst = append(dst, name[:]...)
	dst = le.AppendUint32(dst, h.Construction)
	dst = append(dst, byte(h.Early), byte(h.Party))
	dst = le.AppendUint64(dst, uint64(h.Rows))
	dst = le.AppendUint32(dst, uint32(h.Lanes))
	dst = le.AppendUint64(dst, uint64(h.RowLo))
	dst = le.AppendUint64(dst, uint64(h.RowHi))
	return le.AppendUint64(dst, h.Epoch)
}

// parseHello decodes a hello payload, refusing any value the encoder could
// not have produced from a valid hello, so an accepted payload re-encodes
// to itself.
func parseHello(r *frame.Reader) (hello, error) {
	h := hello{Version: int(r.U32())}
	name := r.Take(prgNameLen)
	h.Construction = r.U32()
	h.Early, h.Party = int(r.U8()), int(r.U8())
	rows, lanes := r.U64(), r.U32()
	lo, hi := r.U64(), r.U64()
	h.Epoch = r.U64()
	if r.Bad() || r.Remaining() != 0 {
		return hello{}, fmt.Errorf("%w: hello is not %d bytes", ErrProtocol, helloLen)
	}
	h.PRG = string(bytes.TrimRight(name, "\x00"))
	switch {
	case bytes.IndexByte([]byte(h.PRG), 0) >= 0:
		return hello{}, fmt.Errorf("%w: hello PRF name %q", ErrProtocol, h.PRG)
	case h.Early > dpf.MaxEarlyBits || h.Party > 1:
		return hello{}, fmt.Errorf("%w: hello early depth %d, party %d", ErrProtocol, h.Early, h.Party)
	case rows > maxInt || lo > maxInt || hi > maxInt:
		return hello{}, fmt.Errorf("%w: hello table of %d rows, held [%d,%d)", ErrProtocol, rows, lo, hi)
	}
	h.Rows, h.Lanes, h.RowLo, h.RowHi = int(rows), int(lanes), int(lo), int(hi)
	return h, nil
}

// helloLen is the size of appendHello's payload.
const helloLen = 4 + prgNameLen + 4 + 1 + 1 + 8 + 4 + 8 + 8 + 8

// servedEarly is the early-termination depth a table of rows serves.
func servedEarly(rows int) int { return dpf.DefaultEarly(dpf.DomainBits(rows)) }

// refusal checks pinned, a client's hello, against served, a server's
// configuration, and names both values of the first mismatch ("" = none).
// The server runs it on every hello, and the client again on the welcome.
func refusal(pinned, served *hello) string {
	switch {
	case pinned.Version != served.Version:
		return fmt.Sprintf("client speaks wire version %d, this server speaks version %d", pinned.Version, served.Version)
	case pinned.PRG != "" && pinned.PRG != served.PRG:
		return fmt.Sprintf("client keys use prg=%s, this server serves prg=%s", pinned.PRG, served.PRG)
	case pinned.PRG != "" && pinned.Construction != served.Construction:
		return fmt.Sprintf("client keys use prg=%s construction %#x, this server's prg=%s is construction %#x",
			pinned.PRG, pinned.Construction, served.PRG, served.Construction)
	case pinned.Early != 0 && pinned.Early != served.Early:
		return fmt.Sprintf("client keys carry early-termination depth %d, this server serves depth %d", pinned.Early, served.Early)
	case pinned.Party != served.Party:
		return fmt.Sprintf("client expects party-%d shares, this server computes party %d", pinned.Party, served.Party)
	case pinned.Rows != 0 && pinned.Rows != served.Rows:
		return fmt.Sprintf("client keys address a %d-row table, this server serves %d rows", pinned.Rows, served.Rows)
	}
	return ""
}
