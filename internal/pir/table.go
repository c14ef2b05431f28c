// Package pir implements the two-server DPF-based private information
// retrieval protocol of the paper (§3.1, Figure 2): the client encodes a
// secret index into a DPF key pair with Gen, each non-colluding server
// expands its key against the (replicated) table with one of the
// internal/strategy execution strategies, and the client adds the two
// answer shares to recover the row — revealing the index to neither server.
package pir

import (
	"math"

	"gpudpf/internal/strategy"
)

// Table re-exports the server-side table type. Rows hold uint32 lanes;
// shares are additive mod 2^32 lane-wise, so any fixed-width row encoding
// round-trips exactly (including raw float32 embeddings via Float32 bit
// casting — see PackFloats).
type Table = strategy.Table

// NewTable allocates a zeroed rows×lanes table.
func NewTable(rows, lanes int) (*Table, error) { return strategy.NewTable(rows, lanes) }

// PackFloats bit-casts a float32 vector into uint32 lanes.
func PackFloats(dst []uint32, src []float32) {
	for i, f := range src {
		dst[i] = math.Float32bits(f)
	}
}

// UnpackFloats bit-casts uint32 lanes back into float32s.
func UnpackFloats(dst []float32, src []uint32) {
	for i, u := range src {
		dst[i] = math.Float32frombits(u)
	}
}
