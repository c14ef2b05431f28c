// Package shardnet puts an engine member on the network, so one logical
// PIR replica can span machines: a Server exposes any engine.Member
// (typically a Replica over one shard's rows) over TCP, and a Client
// implements engine.Member against such a node — plug N clients into
// an engine.Cluster and a million-user table splits across hosts while
// answers stay bit-identical to a single process.
//
// The protocol is deliberately minimal. Every exchange is a length-framed
// binary frame (little-endian uint32 byte count, then the body; frames
// over the negotiated cap are refused with ErrFrameTooLarge before
// allocation). Marshaled DPF keys travel inside frames as-is — the dpf
// wire format is already versioned and validated, so re-encoding it would
// only add copies. gob appears exactly once, inside the first frame each
// direction: the handshake, where flexibility beats compactness.
//
// The handshake pins everything two processes must agree on before
// partial shares can mean anything, and rejections name both values:
//
//   - the shardnet protocol version (ProtocolVersion),
//   - the PRF the node's keys must use (like -prg, the dpf wire format
//     carries no PRF identifier),
//   - the early-termination depth served keys carry (resolved, 0 = legacy
//     full-depth wire-v1 keys),
//   - the party (0 or 1) whose shares the node computes,
//
// and it advertises the node's table shape plus the row range the node
// authoritatively holds, which engine.NewCluster checks against each
// shard's assignment.
//
// After the handshake a connection carries lockstep request/response
// frames for the RPCs: the v1 four (Answer, AnswerRange, Shape, Counters;
// op 0x03, the single-row Update, is retired and refused as unknown), the
// v2 epoch-versioned update path (UpdateBatch, Epoch,
// PrepareUpdate, CommitUpdate, AbortUpdate), and the v3 replica-group
// pair — Ping, the cheap liveness probe, and SnapshotMeta/SnapshotChunk,
// which stream a node's pinned table snapshot in capped offset-resumable
// frames so a stale peer can be healed to the current epoch. The Client
// keeps a pool of such connections, so concurrent batches — and the
// per-shard fan-out of a Cluster answer — overlap across connections
// rather than queueing on one.
package shardnet

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"

	"gpudpf/internal/engine"
	"gpudpf/internal/frame"
)

// ProtocolVersion is the shardnet wire version spoken by this build; the
// handshake refuses any other, naming both versions. Version 2 added the
// epoch-versioned table store: the welcome advertises the node's table
// epoch, answer responses carry the epoch their partials were computed
// at, and the UpdateBatch / Epoch / PrepareUpdate / CommitUpdate /
// AbortUpdate RPCs drive snapshot-consistent updates (the cluster epoch
// handshake) over the wire. Version 3 added replica-group support: the
// Ping liveness probe the cluster's health prober uses, and the
// SnapshotMeta / SnapshotChunk pair that streams a node's pinned table
// snapshot in capped, offset-resumable frames so a stale group member can
// be healed to the current epoch from a healthy peer.
const ProtocolVersion = 3

// protoName guards against pointing a shardnet client at some other
// length-framed service (or vice versa).
const protoName = "gpudpf-shardnet"

// DefaultMaxFrame is the frame byte cap used when a config leaves it zero:
// comfortably above any real batch (a 512-key batch with 64-lane rows
// answers in ~128 KiB) while bounding what a hostile peer can make either
// side buffer.
const DefaultMaxFrame = 16 << 20

// maxHandshakeBytes caps the gob-encoded handshake frame; a hello/welcome
// is a few hundred bytes.
const maxHandshakeBytes = 4096

// DefaultMaxBatch is the per-request key cap used when ServerConfig
// leaves MaxBatch zero: an order of magnitude above the serving layer's
// formed batches while bounding the backend allocation fan-out a hostile
// frame of near-empty keys could otherwise buy.
const DefaultMaxBatch = 4096

// AdoptParty configures a Client (Options.Party) to accept whichever
// party the node computes instead of pinning one.
const AdoptParty = -1

// hello is the client's handshake message: the protocol version it
// speaks and the configuration it expects the node to serve. Zero values
// adopt the node's configuration instead of pinning: PRG "" accepts any
// PRF, Early 0 accepts any depth (engine.FullDepthKeys pins legacy
// full-depth keys, positive values pin that resolved depth), Party
// AdoptParty accepts either share.
type hello struct {
	Proto   string
	Version int
	PRG     string
	Early   int
	Party   int
}

// welcome is the node's reply: a non-empty Err means the handshake was
// rejected (the message names both sides' values); otherwise the node's
// pinned configuration, table shape, the global row range it
// authoritatively holds, and the table epoch it currently serves
// (advisory: epochs move with updates; the authoritative epoch rides on
// every answer response).
type welcome struct {
	Err        string
	Version    int
	PRG        string
	Early      int
	Party      int
	Rows       int
	Lanes      int
	RowLo      int
	RowHi      int
	Epoch      uint64
	EpochKnown bool
}

// normEarly maps a client's early pin encoding to the resolved depth it
// pins: engine.FullDepthKeys pins depth 0 (legacy wire-v1 keys).
func normEarly(early int) int {
	if early == engine.FullDepthKeys {
		return 0
	}
	return early
}

// writeHandshake gob-encodes v into one capped frame. Framing the gob
// bytes keeps the handshake decoder off the live stream: nothing it
// buffers can swallow the first RPC frame.
func writeHandshake(w io.Writer, v any) error {
	buf := bytes.NewBuffer(frame.Begin(nil))
	if err := gob.NewEncoder(buf).Encode(v); err != nil {
		return fmt.Errorf("shardnet: encoding handshake: %w", err)
	}
	return frame.Write(w, buf.Bytes(), maxHandshakeBytes)
}

// readHandshake reads one capped frame and gob-decodes it into v.
func readHandshake(r io.Reader, v any) error {
	var buf []byte
	body, err := frame.Read(r, maxHandshakeBytes, &buf)
	if err != nil {
		return err
	}
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(v); err != nil {
		return fmt.Errorf("shardnet: decoding handshake: %w", err)
	}
	return nil
}
