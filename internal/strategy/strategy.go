package strategy

import (
	"fmt"
	"time"

	"gpudpf/internal/dpf"
	"gpudpf/internal/gpu"
)

// nodeBytes is the modeled device footprint of one tree node: a 128-bit
// seed plus its control bit.
const nodeBytes = 17

// tileQueries is the matrix-multiplication tile width: one pass over the
// table serves this many queries' dot products (the paper batches
// per-table dot products into one matrix-matrix multiply, §3.1). This is
// both the modeled width in tableReadBytes and the width the tile loop
// (runTiles) executes — a batch of B queries streams the table ⌈B/32⌉
// times, not B times.
const tileQueries = 32

// Modeler is one of the paper's GPU execution strategies (§3.2) as an
// analytic model: what the figures, the co-design search and the modeled
// scheduler (Schedule) compare. All six strategies are Modelers; only
// MemBoundTree also executes.
type Modeler interface {
	// Name identifies the strategy in reports.
	Name() string
	// Model analytically predicts the device-side execution of a batch of
	// the given shape and converts it to a Report via dev's cost model.
	Model(dev *gpu.Device, prg dpf.PRG, bits, batch, lanes int) (Report, error)
}

// Strategy is a Modeler that also executes on the host. MemBoundTree is
// the one implementation; the interface is the seam a caller wraps it
// through (engine.Config.Strategy).
type Strategy interface {
	Modeler
	// RunRangeInto evaluates the batch of keys against rows [lo, hi) of v,
	// accumulating counts into ctr: dst[q] (v.Lanes() wide, zeroed by the
	// caller) receives key q's partial answer share for the range. Keys
	// must be scalar (one lane), match the table's depth and share one
	// early-termination depth. Summing the partials of ranges that
	// partition [0, v.Rows()) lane-wise (mod 2^32) yields exactly the
	// whole-table answers — the seam engine.Cluster shards on. The walk
	// prunes subtrees outside the range, so a 1/N range costs ~1/N of the
	// full evaluation. Counters are pinned to Model for the whole-table
	// range of a power-of-two table and proportional for partial ones.
	//
	// RunRangeInto adds into dst without allocating per-call answer
	// storage, which is what gives engine.Replica an allocation-free
	// steady-state Answer. The table arrives as a
	// TableView and is streamed through its order-free Pass
	// (accumulateTile), so the same code path serves in-RAM tables (row
	// blocks), written epochs, and paged backings larger than memory.
	RunRangeInto(prg dpf.PRG, keys []*dpf.Key, v TableView, lo, hi int, ctr *gpu.Counters, dst [][]uint32) error
}

// Run evaluates the batch against the whole of v and returns one answer
// share vector (v.Lanes() wide) per key: RunRange over [0, v.Rows()), the
// range whose counters are pinned to Model.
func Run(s Strategy, prg dpf.PRG, keys []*dpf.Key, v TableView, ctr *gpu.Counters) ([][]uint32, error) {
	return RunRange(s, prg, keys, v, 0, v.Rows(), ctr)
}

// RunRange is s.RunRangeInto into freshly allocated answers: per-key
// partial shares for rows [lo, hi) of v. The serving path pools its
// buffers and calls RunRangeInto itself; this is for tests, benchmarks and
// experiments.
func RunRange(s Strategy, prg dpf.PRG, keys []*dpf.Key, v TableView, lo, hi int, ctr *gpu.Counters) ([][]uint32, error) {
	dst := NewAnswers(len(keys), v.Lanes())
	if err := s.RunRangeInto(prg, keys, v, lo, hi, ctr, dst); err != nil {
		return nil, err
	}
	return dst, nil
}

// Report is the modeled outcome of executing one batch.
type Report struct {
	// Strategy and PRG identify the configuration.
	Strategy string
	PRG      string
	// Bits, Batch and Lanes describe the workload shape.
	Bits  int
	Batch int
	Lanes int
	// PRFBlocks is the total 128-bit PRF block count for the batch.
	PRFBlocks int64
	// PeakMemBytes is the modeled peak device memory.
	PeakMemBytes int64
	// Latency is the modeled batch latency; Throughput is queries/second
	// at that latency; Utilization is the achieved fraction of device
	// lanes.
	Latency     time.Duration
	Throughput  float64
	Utilization float64
}

func (r Report) String() string {
	return fmt.Sprintf("%s/%s L=2^%d B=%d lanes=%d: %.3g QPS, %v, util %.1f%%, peak %.1f MB",
		r.Strategy, r.PRG, r.Bits, r.Batch, r.Lanes,
		r.Throughput, r.Latency.Round(10*time.Microsecond), r.Utilization*100,
		float64(r.PeakMemBytes)/(1<<20))
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
		if k.Lanes != 1 {
			return fmt.Errorf("strategy: key %d has %d lanes; PIR keys are scalar", i, k.Lanes)
		}
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

// modelEarly is the early-termination depth the analytic Models assume: the
// default depth Gen gives scalar PIR keys for this tree depth. Counters pin
// to Model exactly for batches of default-format keys; explicitly
// full-depth (wire v1) batches do proportionally more PRF work than the
// model prices.
func modelEarly(bits int) int { return dpf.DefaultEarly(bits, 1) }

// treeBlocks is the PRF block count of one full early-terminated expansion:
// the walk stops `early` levels up, so 2^(bits-early)-1 Expand calls derive
// the terminal frontier, two blocks each. early=0 recovers the classic
// 2L-2.
func treeBlocks(bits, early int) int64 {
	return 2*(int64(1)<<uint(bits-early)) - 2
}

// prgCyclesPerBlock re-anchors a PRF's calibrated per-block device cost to
// early-terminated block counts. The per-PRF cycle constants were fitted so
// that FULL-tree block accounting reproduces the paper's measured
// latencies — measurements that already include the §3.1 early-termination
// optimisation. Now that PRFBlocks counts the genuinely shortened tree
// (2^early× fewer blocks for the same kernel), the same fitted cost is
// re-expressed per terminal-tree block; modeled latencies stay anchored to
// the paper while PRFBlocks reports the real PRF work.
func prgCyclesPerBlock(cycles float64, early int) float64 {
	return cycles * float64(int64(1)<<uint(early))
}

// validateRange checks a row range against the table's row count.
func validateRange(rows, lo, hi int) error {
	if lo < 0 || hi > rows || lo >= hi {
		return fmt.Errorf("strategy: row range [%d,%d) invalid for table of %d rows", lo, hi, rows)
	}
	return nil
}

// fullRange reports whether [lo, hi) covers the whole table, in which case
// RunRangeInto keeps the calibrated full-run counter accounting (pinned to
// Model by the tests).
func fullRange(rows, lo, hi int) bool { return lo == 0 && hi == rows }

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

// tableReadBytes models the global-memory traffic of the fused/tiled dot
// product: one table pass per tile of queries.
func tableReadBytes(batch, bits, lanes int) int64 {
	rows := int64(1) << uint(bits)
	tiles := int64((batch + tileQueries - 1) / tileQueries)
	return tiles * rows * int64(lanes) * 4
}

// rangeReadBytes is tableReadBytes for a partial row range: one pass over
// the range's rows per tile of queries.
func rangeReadBytes(batch, lanes, rows int) int64 {
	tiles := int64((batch + tileQueries - 1) / tileQueries)
	return tiles * int64(rows) * int64(lanes) * 4
}

// dotArithCycles models the multiply-accumulate work of the dot product
// (one lane-cycle per MAC).
func dotArithCycles(batch, bits, lanes int) float64 {
	rows := float64(int64(1) << uint(bits))
	return float64(batch) * rows * float64(lanes)
}

// finishReport converts a kernel profile into a Report.
func finishReport(dev *gpu.Device, name string, prg dpf.PRG, bits, batch, lanes int, p gpu.KernelProfile) (Report, error) {
	lat, util, err := dev.Estimate(p)
	if err != nil {
		return Report{}, fmt.Errorf("strategy %s (L=2^%d B=%d): %w", name, bits, batch, err)
	}
	r := Report{
		Strategy:     name,
		PRG:          prg.Name(),
		Bits:         bits,
		Batch:        batch,
		Lanes:        lanes,
		PRFBlocks:    p.Stats.PRFBlocks,
		PeakMemBytes: p.Stats.PeakMemBytes,
		Latency:      lat,
		Utilization:  util,
	}
	if lat > 0 {
		r.Throughput = float64(batch) / lat.Seconds()
	}
	return r, nil
}

// timeFromSeconds converts a float second count to a Duration.
func timeFromSeconds(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}

// TuneBatch sweeps power-of-two batch sizes and returns the batch that
// maximizes modeled throughput subject to a latency budget (0 = unlimited)
// and device memory. This is the paper's per-experiment batch tuning
// ("batch size is tuned for each experiment separately", §5.1).
func TuneBatch(dev *gpu.Device, s Modeler, prg dpf.PRG, bits, lanes int, maxLatency time.Duration) (Report, error) {
	var best Report
	found := false
	for b := 1; b <= 1<<17; b *= 2 {
		r, err := s.Model(dev, prg, bits, b, lanes)
		if err != nil {
			break // OOM: larger batches only get worse
		}
		if maxLatency > 0 && r.Latency > maxLatency {
			if !found {
				// Even batch 1 exceeds the budget; report it anyway so
				// callers can see by how much.
				return r, fmt.Errorf("strategy: no batch size meets latency budget %v (batch 1 takes %v)", maxLatency, r.Latency)
			}
			break
		}
		if !found || r.Throughput > best.Throughput {
			best, found = r, true
		}
	}
	if !found {
		return Report{}, fmt.Errorf("strategy: no feasible batch size for %s at L=2^%d", s.Name(), bits)
	}
	return best, nil
}
