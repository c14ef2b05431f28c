package pir

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"io"
	mrand "math/rand/v2"

	"gpudpf/internal/dpf"
)

// Client generates PIR queries and reconstructs answers. It is the
// on-device side of Figure 2: Gen is cheap enough for a phone-class CPU
// (Figure 3).
type Client struct {
	prg   dpf.PRG
	rng   io.Reader
	bits  int
	rows  int
	early int
}

// NewClient builds a client for a table with the given row count, using the
// named PRF (which must match the servers'). rng may be nil to use
// crypto/rand. Keys use the default early-termination depth (wire format
// v3, 2 levels for 4 lanes/leaf); use NewClientEarly to interoperate with
// servers configured for a different depth.
func NewClient(prgName string, rows int, rng io.Reader) (*Client, error) {
	return NewClientEarly(prgName, rows, dpf.DefaultEarlyBits, rng)
}

// NewClientEarly is NewClient with an explicit early-termination depth,
// 1..dpf.MaxEarlyBits (servers do not serve legacy full-depth keys),
// clamped to what the table's tree supports exactly as the server side
// clamps its configured depth, so matching flags stay matched on tiny
// tables.
func NewClientEarly(prgName string, rows, early int, rng io.Reader) (*Client, error) {
	prg, err := dpf.NewPRG(prgName)
	if err != nil {
		return nil, err
	}
	if rows <= 0 {
		return nil, fmt.Errorf("pir: table needs at least one row, got %d", rows)
	}
	if err := checkEarly(early); err != nil {
		return nil, err
	}
	if rng == nil {
		rng = rand.Reader
	}
	bits := dpf.DomainBits(rows)
	return &Client{prg: prg, rng: rng, bits: bits, rows: rows, early: dpf.ClampEarly(early, bits)}, nil
}

// Early returns the early-termination depth the client's keys carry.
func (c *Client) Early() int { return c.early }

// Query encodes the secret index into one marshaled key per server.
// Each key alone is indistinguishable from a key for any other index.
func (c *Client) Query(index uint64) (key0, key1 []byte, err error) {
	if index >= uint64(c.rows) {
		return nil, nil, fmt.Errorf("pir: index %d outside table of %d rows", index, c.rows)
	}
	k0, k1, err := dpf.GenEarly(c.prg, index, c.bits, []uint32{1}, c.early, c.rng)
	if err != nil {
		return nil, nil, fmt.Errorf("pir: generating keys: %w", err)
	}
	if key0, err = k0.MarshalBinary(); err != nil {
		return nil, nil, err
	}
	if key1, err = k1.MarshalBinary(); err != nil {
		return nil, nil, err
	}
	return key0, key1, nil
}

// QueryBatch generates keys for a batch of indices, one Query per index in
// order; the q-th entry of each returned slice goes to the respective
// server.
func (c *Client) QueryBatch(indices []uint64) (keys0, keys1 [][]byte, err error) {
	keys0 = make([][]byte, len(indices))
	keys1 = make([][]byte, len(indices))
	for q, idx := range indices {
		keys0[q], keys1[q], err = c.Query(idx)
		if err != nil {
			return nil, nil, err
		}
	}
	return keys0, keys1, nil
}

// KeyBytes is the wire size of one key for this client's table shape and
// termination depth.
func (c *Client) KeyBytes() int { return dpf.MarshaledSizeEarly(c.bits, 1, c.early) }

// InsecureSeeded adapts a seeded generator into the io.Reader NewClient
// draws key randomness from. Whoever can replay rng's stream holds both
// parties' keys, so it is for reproducible runs and tests, never for a
// client whose index must stay secret. The stream is rng's Uint64s,
// little-endian; a read that ends mid-word takes the low bytes of one more
// draw.
func InsecureSeeded(rng *mrand.Rand) io.Reader { return seededReader{rng} }

type seededReader struct{ rng *mrand.Rand }

func (r seededReader) Read(p []byte) (int, error) {
	n := len(p)
	for ; len(p) >= 8; p = p[8:] {
		binary.LittleEndian.PutUint64(p, r.rng.Uint64())
	}
	if len(p) > 0 {
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], r.rng.Uint64())
		copy(p, w[:])
	}
	return n, nil
}

// Reconstruct adds the two servers' answer shares lane-wise (mod 2^32),
// yielding the queried row.
func Reconstruct(share0, share1 []uint32) ([]uint32, error) {
	if len(share0) != len(share1) {
		return nil, fmt.Errorf("pir: share lengths differ: %d vs %d", len(share0), len(share1))
	}
	out := make([]uint32, len(share0))
	for i := range out {
		out[i] = share0[i] + share1[i]
	}
	return out, nil
}
