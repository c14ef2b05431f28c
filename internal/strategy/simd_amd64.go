//go:build amd64 && !purego

package strategy

import "gpudpf/internal/cpufeat"

// The asm accumulate tiers of the query-tiled matmul, gated like dpf's AES
// kernels: build tags select the asm, the shared cpufeat probe the widest
// tier once at init; the scalar loop is the fallback and test reference.

// accTileAVX2 adds Σ_j leaves[i][leafOff+j] · rows[j·lanes : (j+1)·lanes]
// for j in [0, n), n ≥ 1, into ans[i][:lanes] mod 2^32, for the q ∈ {1, 2, 4}
// queries whose slice headers start at ans and leaves. Accumulators for q
// queries × 2 YMM vectors stay in registers across the n rows; loads and
// stores are unaligned-tolerant and never touch a lane ≥ lanes
// (simd_amd64.s).
//
//go:noescape
func accTileAVX2(ans, leaves *[]uint32, q, leafOff int, rows *uint32, lanes, n int)

// accTileAVX512 is accTileAVX2 on ZMM registers: a lone query × 4 vectors
// on VPMULLD, q ∈ {2, 4} queries × 2 vectors on AVX-512 IFMA.
//
//go:noescape
func accTileAVX512(ans, leaves *[]uint32, q, leafOff int, rows *uint32, lanes, n int)

// accKernel is the tier accumulateChunk runs on this host.
var accKernel = func() string {
	switch {
	case cpufeat.AMXInt8 && cpufeat.AVX512IFMA && cpufeat.AVX2:
		return accAMX
	case cpufeat.AVX512IFMA && cpufeat.AVX2:
		return accAVX512
	case cpufeat.AVX2:
		return accAVX2
	}
	return accScalar
}()

func accumulateChunk(data []uint32, lanes, row, leafLo int, leaves [][]uint32, answers [][]uint32) {
	if accKernel == accScalar {
		accumulateChunkScalar(data, lanes, row, leafLo, leaves, answers)
		return
	}
	accumulateChunkTier(accKernel, data, lanes, row, leafLo, leaves, answers)
}

// accumulateChunkTier is accumulateChunk through the named asm tier. The amx
// tier serves a chunk of at least amxMinRows rows: a tile of at least
// amxQueries queries on the 16-query body (16 queries to an A tile, four
// TDPBUUD a step, one per byte plane), a tile of 2 to amxPackedQueries on
// the packed body (the four byte planes of every query in one A tile, one
// TDPBUUD a step). Its other chunks run the avx512 bodies: a lone query,
// whose packed A tile would fill 4 of 16 rows at a full TDPBUUD's cost
// (1024×64 rows, q1: 1.9–2.0 µs against 1.8–1.9 µs), and tiles of 5–15
// queries.
func accumulateChunkTier(tier string, data []uint32, lanes, row, leafLo int, leaves [][]uint32, answers [][]uint32) {
	if tier == accAMX {
		var body func(*amxScratch, []uint32, int, int, int, [][]uint32, [][]uint32)
		switch nq := len(leaves); {
		case len(data)/lanes < amxMinRows:
		case nq >= amxQueries:
			body = accumulateChunkAMX
		case nq >= 2 && nq <= amxPackedQueries:
			body = accumulateChunkAMXPacked
		}
		if body != nil {
			sc := amxScratchPool.Get().(*amxScratch)
			body(sc, data, lanes, row, leafLo, leaves, answers)
			amxScratchPool.Put(sc)
			return
		}
		tier = accAVX512
	}
	accumulateChunkSIMD(tier, data, lanes, row, leafLo, leaves, answers)
}

// accBlockWords sizes the SIMD path's row block: the rows that fit in
// 128 KiB of table, streamed from memory once and re-read from L2 by every
// query group of the tile (accumulateTile's read-each-row-once model,
// §3.2.4). A byte budget holds across row widths where a row count does
// not: 2048 64-byte rows, but only 32 4 KiB rows — at 64+ rows of that
// stride the column strips alias in L1 and outrun the DTLB, and measured
// throughput halves — and a paged view's chunk still holds whole blocks.
const accBlockWords = 128 << 10 / 4

// accumulateChunkSIMD is accumulateChunk through asm tier avx512 or avx2.
// Per row block the tile's queries take the microkernel four at a time; a
// 1–3-query remainder (and a batch-1 tile) takes the two- and one-query
// bodies, so no multiply is spent on a padded slot.
//
// The avx512 tier's four- and two-query bodies multiply on AVX-512 IFMA,
// one VPMADD52LUQ per 8 lanes where a VPMULLD+VPADDD pair did 16. On a
// 2-vCPU AMX host (BenchmarkAccumulateKernelTiers q4) a 256 KiB page of
// 4 KiB rows takes 5.1–5.3 µs against the VPMULLD body's 6.5–6.7 µs, and
// the 64 MiB table 2.20–2.38 ms against 2.38–2.64 ms; at q2 the page takes
// 3.0 µs against 3.4 µs, and a 64-lane two-query strip (4 vectors, not 2)
// gained under 4% more, too little for a second set of macros.
//
// Its lone query holds a 64-lane strip in four ZMM registers on VPMULLD.
// An earlier ZMM body read 8% slower end to end on cluster-single (6
// pairs), blamed on the frequency cost of 512-bit multiplies, so lone
// queries ran accTileAVX2's 2-YMM strip. Measured again on a 2-vCPU AMX
// host: over a 1024×64 table (BenchmarkAccumulateKernelTiers q1) 4.8–5.3 µs
// with the 2-YMM strip, 3.8–4.3 µs with an 8-YMM one, 2.7–3.0 µs with the
// ZMM one; and on cluster-single, 12 rounds against the 2-YMM build, each
// body beside engine.Cluster's chained fan-out, median throughput +3.1%
// with the ZMM body (ahead in 10 of 12) and +2.8% with the 8-YMM one (11 of
// 12), so the ZMM body ships.
//
// The kernel walks the lanes itself, tail lanes under a mask; the calls
// are direct so their pointer arguments stay on this stack.
// Bit-identical to accumulateChunkScalar: mod-2^32 adds commute.
func accumulateChunkSIMD(tier string, data []uint32, lanes, row, leafLo int, leaves [][]uint32, answers [][]uint32) {
	nRows := len(data) / lanes
	for q := range leaves {
		// The kernel takes raw pointers: panic on a short buffer here.
		_, _ = answers[q][lanes-1], leaves[q][row-leafLo:row-leafLo+nRows]
	}
	zmm := tier == accAVX512
	block := max(1, accBlockWords/lanes)
	for j0 := 0; j0 < nRows; j0 += block {
		n := min(block, nRows-j0)
		for q := 0; q < len(leaves); {
			qn := [...]int{1: 1, 2: 2, 3: 2, 4: 4}[min(4, len(leaves)-q)]
			if zmm {
				accTileAVX512(&answers[q], &leaves[q], qn, row+j0-leafLo, &data[j0*lanes], lanes, n)
			} else {
				accTileAVX2(&answers[q], &leaves[q], qn, row+j0-leafLo, &data[j0*lanes], lanes, n)
			}
			q += qn
		}
	}
}
