//go:build amd64 && !purego

package strategy

import "gpudpf/internal/cpufeat"

// AVX2 answer kernel for the query-tiled matmul. accumulateRowsAVX2 runs
// the leaf·row lane-wise mod-2^32 multiply-accumulate 8 lanes per
// VPMULLD/VPADDD, keeping one query's answer accumulators in YMM registers
// across a whole row block. Gating mirrors dpf's aesni_amd64.go: the build
// tags select the asm implementation, the shared cpufeat probe selects it
// at runtime, and the scalar loop stays as both the fallback and the test
// reference.

// accumulateRowsAVX2 adds leaves[j]·rows[j·lanes : j·lanes+simdLanes] into
// dst[:simdLanes] for j in [0, n), mod 2^32. simdLanes must be a non-zero
// multiple of 8 and ≤ lanes; lanes beyond simdLanes are the caller's
// scalar tail. All loads and stores are unaligned-tolerant, so pooled
// scratch and table backing need no special alignment. Implemented in
// simd_amd64.s.
//
//go:noescape
func accumulateRowsAVX2(dst, leaves, rows *uint32, lanes, simdLanes, n int)

// avx2OK gates the SIMD accumulate path; accumulateTileScalar is the
// fallback (and the reference the property tests compare against).
var avx2OK = cpufeat.AVX2
