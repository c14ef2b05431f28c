//go:build amd64 && !purego

package strategy

import "sync"

// The amx accumulate tier: the table matmul on the CPU's tile matrix unit.
//
// TDPBUUD multiplies a 16×64 u8 tile A by a 16×64 u8 tile B into a 16×16
// int32 tile C, wrapping: C[q][n] += Σ_k Σ_{b<4} A[q][4k+b] · B[k][4n+b].
// Read B's row k as table row k and its dword n as lane n: the four bytes
// of a table word ARE the four b-slots, so the table is the B operand as it
// lies in memory — 16 rows × 16 lanes per tile load, no conversion, no
// second layout. With a = Σ aᵢ·2^{8i} a leaf share and b = Σ bⱼ·2^{8j} a
// table word,
//
//	a·b mod 2^32 = Σ_{s≤3} 2^{8s} · Σ_{j≤s} a_{s−j}·bⱼ,
//
// so accumulator C_s takes A-plane s whose dword for (query q, row k) holds
// the bytes (a_s, a_{s−1}, …, a_0, 0, …): plane 3 is the byte-reversed
// leaf share, plane s that shifted right 8(3−s) bits. Four TDPBUUD per 16
// rows × 16 lanes × 16 queries (ten of their sixteen byte slots carry a
// product), C_s resident in tile registers across a row panel, and at its
// end ans += C0 + C1<<8 + C2<<16 + C3<<24 — wrapping int32 sums shifted
// left are exactly the mod-2^32 terms. Bit-identical to the scalar loop.
//
// A tile of nq ≤ 4 queries would fill nq of an A tile's 16 rows, and a
// TDPBUUD costs the same however many rows it multiplies. So the packed
// body stacks the planes instead: row s·nq+q of its one A tile is plane s
// of query q (the same conversion, planes 64·nq bytes apart), and row
// s·nq+q of the accumulator is query q's plane-s sum, so
//
//	ans_q += C[q] + C[nq+q]<<8 + C[2nq+q]<<16 + C[3nq+q]<<24
//
// — one TDPBUUD per 16 rows × 16 lanes for all nq queries. The two loop
// schedules, both lane tiles outer and 16-row steps inner over a row
// panel:
//
//   - 16-query body (amxAccPanel): one lane tile at a time, four A loads
//     and four TDPBUUD per step into C0–C3, the tile's four plane sums.
//   - packed body (amxAccPacked): four lane tiles at a time, one A load
//     and four TDPBUUD per step into C0–C3, one per lane tile — four
//     independent chains against one A load. A group's accumulators are
//     stored just before the next group's first products on them and
//     folded into the answers after that first step.

//go:noescape
func amxAccPanel(cfg *[2][64]byte, a, c *amxPlanes, tab *uint32, stride, steps, lanes int, ans, leaves *[]uint32, leafOff, nq int, pf *uint32)

//go:noescape
func amxAccPacked(cfg *[2][64]byte, a, c *amxPlanes, tab *uint32, stride, steps, lanes int, ans, leaves *[]uint32, leafOff, nq int, pf *uint32, pfs int)

const (
	// amxQueries is one A tile's rows: the 16-query body serves tiles of
	// at least this many queries.
	amxQueries = 16
	// amxStepRows is the table rows one TDPBUUD contracts over (a B tile's
	// rows); amxMinRows the chunk height below which the tier's set-up is
	// not worth a call.
	amxStepRows = 16
	amxMinRows  = 64
	// amxRingSteps is how many steps of leaf planes (4 KiB each) are kept
	// for the lane tiles after the first to re-read. They must stay in L1
	// beside the streaming table tiles: 24 KiB of its 48.
	amxRingSteps = 6
	// amxPanelBytes bounds a row panel's table bytes, so the second query
	// tile's pass over it — and the next panel, prefetched meanwhile — are
	// served by L2.
	amxPanelBytes = 512 << 10
	// amxPackedQueries is the most queries the packed body takes: four
	// planes of each fill one A tile's 16 rows. amxPackedRingSteps is its
	// ring, a step's planes taking 1 KiB.
	amxPackedQueries   = 4
	amxPackedRingSteps = 4 * amxRingSteps
)

// amxPlanes is four 16×16-dword tiles in memory: one step's leaf planes
// A0–A3, or the stored accumulators C0–C3.
type amxPlanes [4][amxQueries][16]uint32

// amxScratch is one call's tile configs, accumulator spill and plane ring.
// cEnd and aEnd are never written: the tests' overrun canaries.
type amxScratch struct {
	cfg  [2][64]byte
	c    amxPlanes
	cEnd [16]uint32
	a    [amxRingSteps]amxPlanes
	aEnd [16]uint32
}

var amxScratchPool = sync.Pool{New: func() any { return new(amxScratch) }}

// setTileCfg fills a palette-1 tile configuration: C0–C3 are queries ×
// lanes dwords, B (tmm4) 16 rows × lanes dwords, A (tmm5–7) queries × 64
// bytes.
func setTileCfg(cfg *[64]byte, queries, lanes int) {
	*cfg = [64]byte{0: 1}
	for t := 0; t < 8; t++ {
		rows, colsb := queries, 4*lanes
		switch {
		case t == 4:
			rows = amxStepRows
		case t > 4:
			colsb = 64
		}
		cfg[16+2*t] = byte(colsb)
		cfg[48+t] = byte(rows)
	}
}

// accumulateChunkAMX is accumulateChunk on the tile unit: row panels of
// whole 16-row steps, 16 queries at a time (a last partial query tile is a
// shorter A tile, not padding); the chunk's last rows%16 rows go through
// the avx512 body. A panel is cut by bytes, and to the plane ring when the
// row is wider than one lane tile. sc is the call's to scribble on.
func accumulateChunkAMX(sc *amxScratch, data []uint32, lanes, row, leafLo int, leaves [][]uint32, answers [][]uint32) {
	nRows := len(data) / lanes
	for q := range leaves {
		// The kernel takes raw pointers: panic on a short buffer here.
		_, _ = answers[q][lanes-1], leaves[q][row-leafLo:row-leafLo+nRows]
	}
	laneTiles := (lanes + 15) / 16
	panelSteps := max(1, amxPanelBytes/(amxStepRows*4*lanes))
	if laneTiles > 1 {
		panelSteps = min(panelSteps, amxRingSteps)
	}
	wholeSteps := nRows / amxStepRows
	for s0 := 0; s0 < wholeSteps; s0 += panelSteps {
		steps := min(panelSteps, wholeSteps-s0)
		// While a panel multiplies, the next one is pulled toward L2: each
		// query tile's call prefetches 512 bytes per step, which is half a
		// panel, so two query tiles cover it. (The chunk's last panel
		// prefetches the chunk's last rows again: harmless.)
		next := min(s0+panelSteps, wholeSteps-1) * amxStepRows * lanes
		share := steps * laneTiles * 512 / 4
		for q := 0; q < len(leaves); q += amxQueries {
			nq := min(amxQueries, len(leaves)-q)
			setTileCfg(&sc.cfg[0], nq, min(16, lanes))
			setTileCfg(&sc.cfg[1], nq, lanes%16)
			pf := &data[min(next+q/amxQueries*share, len(data)-1)]
			amxAccPanel(&sc.cfg, &sc.a[0], &sc.c, &data[s0*amxStepRows*lanes], 4*lanes, steps, lanes,
				&answers[q], &leaves[q], row+s0*amxStepRows-leafLo, nq, pf)
		}
	}
	if whole := wholeSteps * amxStepRows; whole < nRows {
		accumulateChunkSIMD(accAVX512, data[whole*lanes:], lanes, row+whole, leafLo, leaves, answers)
	}
}

// setPackedTileCfg is setTileCfg for the packed body: C0–C3 and A (tmm4)
// 4·queries rows, B (tmm5–7) 16 rows; A 64 bytes wide, the rest lanes
// dwords.
func setPackedTileCfg(cfg *[64]byte, queries, lanes int) {
	*cfg = [64]byte{0: 1}
	for t := 0; t < 8; t++ {
		rows, colsb := 4*queries, 4*lanes
		switch {
		case t == 4:
			colsb = 64
		case t > 4:
			rows = amxStepRows
		}
		cfg[16+2*t] = byte(colsb)
		cfg[48+t] = byte(rows)
	}
}

// amxPackedGroups is the lane groups the packed body walks a row of lanes
// lanes in: four whole 16-lane tiles to a group, the partial tile alone.
func amxPackedGroups(lanes int) int { return (lanes/16+3)/4 + min(1, lanes%16) }

// accumulateChunkAMXPacked is accumulateChunkAMX for a tile of at most
// amxPackedQueries queries, all of them in one packed A tile: row panels
// of whole 16-row steps, walked in lane groups of four 16-lane tiles. A
// row of more than one group re-reads the panel's planes from the ring,
// so its panel has at most amxPackedRingSteps steps; a row of one group
// (64 lanes or fewer, whole tiles) may take the chunk as one panel. The
// chunk's last rows%16 rows go through the avx512 body.
func accumulateChunkAMXPacked(sc *amxScratch, data []uint32, lanes, row, leafLo int, leaves [][]uint32, answers [][]uint32) {
	nRows := len(data) / lanes
	for q := range leaves {
		// The kernel takes raw pointers: panic on a short buffer here.
		_, _ = answers[q][lanes-1], leaves[q][row-leafLo:row-leafLo+nRows]
	}
	wholeSteps := nRows / amxStepRows
	groups := amxPackedGroups(lanes)
	panelSteps := wholeSteps
	if groups > 1 {
		panelSteps = min(max(1, amxPanelBytes/(amxStepRows*4*lanes)), amxPackedRingSteps)
	}
	setPackedTileCfg(&sc.cfg[0], len(leaves), min(16, lanes))
	setPackedTileCfg(&sc.cfg[1], len(leaves), lanes%16)
	for s0 := 0; s0 < wholeSteps; s0 += panelSteps {
		steps := min(panelSteps, wholeSteps-s0)
		// While a panel multiplies, the next one is pulled toward L2: each
		// step of each lane group prefetches 512 bytes and moves pfs on,
		// which spreads the touches over the whole next panel (about one
		// per 4 KiB). A chunk's last panel prefetches nothing (pfs = 0).
		pf, pfs := s0*amxStepRows*lanes, 0
		if s0+steps < wholeSteps {
			pf = (s0 + steps) * amxStepRows * lanes
			pfs = (amxStepRows*4*lanes/groups + 63) &^ 63
		}
		amxAccPacked(&sc.cfg, &sc.a[0], &sc.c, &data[s0*amxStepRows*lanes], 4*lanes, steps, lanes,
			&answers[0], &leaves[0], row+s0*amxStepRows-leafLo, len(leaves), &data[pf], pfs)
	}
	if whole := wholeSteps * amxStepRows; whole < nRows {
		accumulateChunkSIMD(accAVX512, data[whole*lanes:], lanes, row+whole, leafLo, leaves, answers)
	}
}
