package strategy

import (
	"fmt"

	"gpudpf/internal/dpf"
)

// tileQueries is the tile width of the executed matmul: one pass over the
// row range serves this many queries' dot products (the paper batches
// per-table dot products into one matrix-matrix multiply, §3.1), so a
// batch of B queries streams the range ⌈B/32⌉ times, not B times.
const tileQueries = 32

// Strategy is a host executor. MemBoundTree is the one implementation;
// the interface is the seam a caller wraps it through
// (engine.Config.Strategy).
type Strategy interface {
	// Name identifies the executor in logs and test names.
	Name() string
	// RunRangeInto evaluates the batch of keys against rows [lo, hi) of v
	// and adds the host work it does (PRF blocks walked, table bytes
	// streamed) into ctr: dst[q] (v.Lanes() wide, zeroed by the caller)
	// receives key q's partial answer share for the range. Keys
	// must be scalar (one lane), match the table's depth and share one
	// early-termination depth. Summing the partials of ranges that
	// partition [0, v.Rows()) lane-wise (mod 2^32) yields exactly the
	// whole-table answers — the seam engine.Cluster shards on. The walk
	// prunes subtrees outside the range, so a 1/N range costs ~1/N of the
	// full evaluation.
	//
	// RunRangeInto adds into dst without allocating per-call answer
	// storage, which is what gives engine.Replica an allocation-free
	// steady-state Answer. The table arrives as a TableView and is
	// streamed through its order-free Pass (runPass), so the same
	// code path serves in-RAM tables (row blocks), written epochs, and
	// paged backings larger than memory.
	RunRangeInto(prg dpf.PRG, keys []*dpf.Key, v TableView, lo, hi int, ctr *Counters, dst [][]uint32) error
}

// Run evaluates the batch against the whole of v and returns one answer
// share vector (v.Lanes() wide) per key: RunRange over [0, v.Rows()).
func Run(s Strategy, prg dpf.PRG, keys []*dpf.Key, v TableView, ctr *Counters) ([][]uint32, error) {
	return RunRange(s, prg, keys, v, 0, v.Rows(), ctr)
}

// RunRange is s.RunRangeInto into freshly allocated answers: per-key
// partial shares for rows [lo, hi) of v. The serving path pools its
// buffers and calls RunRangeInto itself; this is for tests, benchmarks and
// experiments.
func RunRange(s Strategy, prg dpf.PRG, keys []*dpf.Key, v TableView, lo, hi int, ctr *Counters) ([][]uint32, error) {
	dst := NewAnswers(len(keys), v.Lanes())
	if err := s.RunRangeInto(prg, keys, v, lo, hi, ctr, dst); err != nil {
		return nil, err
	}
	return dst, nil
}

// validateKeys checks the key preconditions of an executed batch.
// Early-termination depth must be uniform across the batch: the tile loop
// advances whole tiles through shared level loops, which only makes sense
// when every key's tree has the same depth (engine.Replica enforces
// this per key at the front door, so a mixed batch never reaches here from
// the serving path).
func validateKeys(keys []*dpf.Key, bits int) error {
	if len(keys) == 0 {
		return fmt.Errorf("strategy: empty batch")
	}
	early := keys[0].Early
	for i, k := range keys {
		if k.Bits != bits {
			return fmt.Errorf("strategy: key %d has %d bits, table needs %d", i, k.Bits, bits)
		}
		if k.Early != early {
			return fmt.Errorf("strategy: key %d has early-termination depth %d, batch started with %d; batches must be depth-uniform", i, k.Early, early)
		}
	}
	return nil
}

// validateRun is the RunRangeInto preamble.
func validateRun(keys []*dpf.Key, v TableView, lo, hi int, dst [][]uint32) error {
	if err := validateKeys(keys, dpf.DomainBits(v.Rows())); err != nil {
		return err
	}
	if err := validateRange(v.Rows(), lo, hi); err != nil {
		return err
	}
	return validateDst(keys, v.Lanes(), dst)
}

// validateRange checks a row range against the table's row count.
func validateRange(rows, lo, hi int) error {
	if lo < 0 || hi > rows || lo >= hi {
		return fmt.Errorf("strategy: row range [%d,%d) invalid for table of %d rows", lo, hi, rows)
	}
	return nil
}

// accumulateRow adds leaf·row into ans lane-wise (mod 2^32).
func accumulateRow(ans []uint32, leaf uint32, row []uint32) {
	for i, v := range row {
		ans[i] += leaf * v
	}
}

// The implementations of accumulateChunk, which adds one contiguous run
// (rows [row, row+len(data)/lanes)) of a tile pass whose leaves are indexed
// from leafLo: asm tiers register-blocking queries × lane vectors on ZMM or
// YMM (simd_amd64.go) or multiplying byte planes on the AMX tile unit
// (amx_amd64.go), and the loop below. Bit-identical by construction.
const accScalar, accAVX2, accAVX512, accAMX = "scalar", "avx2", "avx512", "amx"

// AccumulateKernel names the one this host runs ("scalar" off amd64, before
// AVX2 and under -tags purego); pirserver logs it beside dpf.AESKernel.
func AccumulateKernel() string { return accKernel }

// accumulateChunkScalar is the portable accumulate loop, the dispatch
// fallback and the reference the asm tiers' property tests pin against.
func accumulateChunkScalar(data []uint32, lanes, row, leafLo int, leaves [][]uint32, answers [][]uint32) {
	// The row is staged through a fixed-size stack buffer: answers and the
	// table share an element type, so without the copy the compiler must
	// reload every row element once per query against possible aliasing.
	// Rows wider than rowBuf take the direct-row loop below.
	var rowBuf [64]uint32
	n := len(data) / lanes
	if lanes <= len(rowBuf) {
		for j := 0; j < n; j++ {
			rw := rowBuf[:lanes]
			copy(rw, data[j*lanes:(j+1)*lanes])
			for q, lv := range leaves {
				accumulateRow(answers[q], lv[row+j-leafLo], rw)
			}
		}
		return
	}
	for j := 0; j < n; j++ {
		rw := data[j*lanes : (j+1)*lanes]
		for q, lv := range leaves {
			accumulateRow(answers[q], lv[row+j-leafLo], rw)
		}
	}
}

// NewAnswers allocates a batch of answer accumulators backed by one flat
// zeroed slice — two allocations for the whole batch, the only ones the
// steady-state hot path retains. engine.Replica uses it for the answers
// it returns, Run/RunRange for theirs.
func NewAnswers(n, lanes int) [][]uint32 {
	flat := make([]uint32, n*lanes)
	ans := make([][]uint32, n)
	for i := range ans {
		ans[i] = flat[i*lanes : (i+1)*lanes : (i+1)*lanes]
	}
	return ans
}

// validateDst checks a RunRangeInto destination batch.
func validateDst(keys []*dpf.Key, lanes int, dst [][]uint32) error {
	if len(dst) != len(keys) {
		return fmt.Errorf("strategy: %d answer buffers for %d keys", len(dst), len(keys))
	}
	for q := range dst {
		if len(dst[q]) != lanes {
			return fmt.Errorf("strategy: answer buffer %d has %d lanes, table has %d", q, len(dst[q]), lanes)
		}
	}
	return nil
}
