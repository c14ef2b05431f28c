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
	prg  dpf.PRG
	rng  io.Reader
	bits int
	rows int
}

// NewClient builds a client for a table with the given row count, using the
// named PRF (which must match the servers'). rng may be nil to use
// crypto/rand. Keys are dpf.Gen's: wire format v4 at the depth the table
// serves, dpf.DefaultEarly(dpf.DomainBits(rows)), the walk stopping 2
// levels up (4 leaves per terminal seed) on any table of 8 rows or more.
func NewClient(prgName string, rows int, rng io.Reader) (*Client, error) {
	prg, err := dpf.NewPRG(prgName)
	if err != nil {
		return nil, err
	}
	if rows <= 0 {
		return nil, fmt.Errorf("pir: table needs at least one row, got %d", rows)
	}
	if rng == nil {
		rng = rand.Reader
	}
	bits := dpf.DomainBits(rows)
	return &Client{prg: prg, rng: rng, bits: bits, rows: rows}, nil
}

// Query encodes the secret index into one marshaled key per server.
// Each key alone is indistinguishable from a key for any other index.
func (c *Client) Query(index uint64) (key0, key1 []byte, err error) {
	if index >= uint64(c.rows) {
		return nil, nil, fmt.Errorf("pir: index %d outside table of %d rows", index, c.rows)
	}
	k0, k1, err := dpf.Gen(c.prg, index, c.bits, 1, c.rng)
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

// KeyBytes is the wire size of one key for this client's table.
func (c *Client) KeyBytes() int { return dpf.KeyBytes(c.bits) }

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
