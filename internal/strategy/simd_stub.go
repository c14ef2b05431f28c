//go:build !amd64 || purego

package strategy

// Non-amd64 builds (and -tags purego) always take the scalar accumulate
// loop.

const accKernel = accScalar

func accumulateChunk(data []uint32, lanes, row, leafLo int, leaves [][]uint32, answers [][]uint32) {
	accumulateChunkScalar(data, lanes, row, leafLo, leaves, answers)
}
