package strategy

import (
	"sync"

	"gpudpf/internal/dpf"
	"gpudpf/internal/gpu"
)

// BranchParallel assigns each thread one terminal node (a leaf for
// full-depth keys, a 2^Early-leaf group for early-terminated ones) and
// recomputes the whole root-to-terminal path per thread (Figure 5a). It
// exposes maximal parallelism and needs almost no intermediate memory, but
// performs O(G·log L) PRF work (G = L >> Early terminal nodes) instead of
// the optimal O(G) — the redundancy the paper's Figure 6 charts.
//
// Execution is query-tiled: for each terminal node, the whole tile's paths
// descend together (one dpf.StepBatch — a single batched PRF call — per
// level, since the path bits are shared and only the keys differ), the
// terminal seed converts into its whole leaf group, and each covered table
// row is then read once for all tile queries instead of once per query.
type BranchParallel struct{}

// Name implements Strategy.
func (BranchParallel) Name() string { return "branch-parallel" }

// RunRangeInto implements Strategy: path-per-leaf execution prunes
// perfectly — only the range's leaves get a thread. The whole-table range
// assigns one thread per domain leaf (including the zero-row tail beyond
// the last row), keeping the calibrated totals.
func (BranchParallel) RunRangeInto(prg dpf.PRG, keys []*dpf.Key, v TableView, rlo, rhi int, ctr *gpu.Counters, dst [][]uint32) error {
	if err := validateRun(keys, v, rlo, rhi, dst); err != nil {
		return err
	}
	full := fullRange(v.Rows(), rlo, rhi)
	bits := dpf.DomainBits(v.Rows())
	lanes := v.Lanes()
	early := keys[0].Early
	depth := bits - early
	gs := 1 << uint(early)
	if full {
		rlo, rhi = 0, 1<<uint(bits)
	}
	// Modeled device allocations: per-query output accumulators only; the
	// per-thread path state lives in registers.
	outBytes := int64(len(keys)) * int64(lanes) * 4
	ctr.Alloc(outBytes)
	defer ctr.Free(outBytes)
	ctr.AddLaunch()

	// Threads own terminal nodes: group g covers leaves
	// [g<<early, (g+1)<<early), and the range may start or end mid-group.
	gLo := rlo >> uint(early)
	gHi := (rhi + gs - 1) >> uint(early)
	for t := 0; t < len(keys); t += tileQueries {
		te := tileEnd(t, len(keys))
		tile := keys[t:te]
		tileDst := dst[t:te]
		var mu sync.Mutex
		var firstErr error
		gpu.ParallelForChunked(gHi-gLo, 0, func(clo, chi int) {
			sc := getWalkScratch()
			sc.growKeys(len(tile))
			local := sc.growLocal(len(tile), lanes)
			// Gather every key's correction words once per chunk — they
			// depend on the level only, not on the terminal node.
			cwm := sc.growCWMat(depth, len(tile))
			for level := 0; level < depth; level++ {
				row := cwm[level*len(tile) : (level+1)*len(tile)]
				for q, k := range tile {
					row[q] = k.CWs[level]
				}
			}
			for g := gLo + clo; g < gLo+chi; g++ {
				for q, k := range tile {
					sc.seeds[q], sc.ts[q] = k.Root, k.Party
				}
				for level := 0; level < depth; level++ {
					bit := uint8(g>>uint(depth-1-level)) & 1
					// A GPU thread derives only the needed child per
					// level: one block per level per terminal node,
					// batched across the query tile.
					dpf.StepBatch(prg, sc.seeds, sc.ts, cwm[level*len(tile):(level+1)*len(tile)], bit, &sc.batch)
				}
				// One terminal seed serves the group's whole leaf span —
				// the §3.1 conversion — clipped to the range and the
				// table's real rows.
				jLo, jHi := g*gs, (g+1)*gs
				if jLo < rlo {
					jLo = rlo
				}
				if jHi > rhi {
					jHi = rhi
				}
				if jHi > v.Rows() {
					jHi = v.Rows()
				}
				if jLo >= jHi {
					continue
				}
				err := v.Chunks(jLo, jHi, func(ch Chunk) error {
					for j := 0; j < len(ch.Data)/lanes; j++ {
						// One row read serves the whole tile (the
						// tiled table pass).
						row := ch.Data[j*lanes : (j+1)*lanes]
						sub := (ch.Row + j) & (gs - 1)
						for q, k := range tile {
							leaf := dpf.LeafLane(k, sc.seeds[q], sc.ts[q], sub)
							accumulateRow(local[q], leaf, row)
						}
					}
					return nil
				})
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					sc.release()
					return
				}
			}
			ctr.AddPRFBlocks(int64(chi-clo) * int64(depth) * int64(len(tile)))
			mu.Lock()
			for q := range local {
				for i := range tileDst[q] {
					tileDst[q][i] += local[q][i]
				}
			}
			mu.Unlock()
			sc.release()
		})
		if firstErr != nil {
			return firstErr
		}
	}
	if full {
		ctr.AddRead(tableReadBytes(len(keys), bits, lanes))
	} else {
		ctr.AddRead(rangeReadBytes(len(keys), lanes, rhi-rlo))
	}
	ctr.AddWrite(outBytes)
	return nil
}

// Model implements Strategy: one thread per terminal node recomputing its
// depth-long path, so total work is batch × (L>>early) × (bits-early)
// blocks — still the redundant-by-log-factor strategy, on a tree 2^early×
// narrower.
func (BranchParallel) Model(dev *gpu.Device, prg dpf.PRG, bits, batch, lanes int) (Report, error) {
	early := modelEarly(bits)
	frontier := int64(1) << uint(bits-early)
	outBytes := int64(batch) * int64(lanes) * 4
	st := gpu.Stats{
		PRFBlocks:    int64(batch) * frontier * int64(bits-early),
		ReadBytes:    tableReadBytes(batch, bits, lanes),
		WriteBytes:   outBytes,
		Launches:     1,
		PeakMemBytes: outBytes,
	}
	p := gpu.KernelProfile{
		Stats:             st,
		PRGCyclesPerBlock: prgCyclesPerBlock(prg.GPUCyclesPerBlock(), early),
		Parallelism:       int64(batch) * frontier,
		ArithCycles:       dotArithCycles(batch, bits, lanes),
	}
	return finishReport(dev, BranchParallel{}.Name(), prg, bits, batch, lanes, p)
}
