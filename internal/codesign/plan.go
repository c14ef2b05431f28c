package codesign

import (
	"math/rand/v2"
	"sort"

	"gpudpf/internal/batchpir"
)

// InferencePlan is the private-retrieval plan for one inference: which
// grouped rows go to which table, and which wanted items are lost to the
// fixed budgets.
type InferencePlan struct {
	// HotOffsets and FullOffsets are the per-bin query offsets (including
	// dummies), one per effective budget slot.
	HotOffsets, FullOffsets []uint64
	// HotServedRows and FullServedRows give, per bin, the grouped row the
	// bin's query retrieves for the client, or -1 for a dummy.
	HotServedRows, FullServedRows []int64
	// Retrieved and Dropped partition the wanted items.
	Retrieved, Dropped []uint64
	// RowItems maps each queried grouped row to the wanted items it
	// satisfies (co-location lets one row satisfy several).
	RowItems map[uint64][]uint64
}

// Plan maps wanted items to grouped rows, routes rows to the hot or full
// table, and packs them into the fixed budgets. Items earlier in wanted win
// bin collisions, so callers should order by importance (e.g. global
// frequency). rng fills dummy offsets.
func (l *Layout) Plan(wanted []uint64, rng *rand.Rand) (*InferencePlan, error) {
	p := &InferencePlan{RowItems: map[uint64][]uint64{}}

	// Dedupe wanted items onto rows, preserving priority order.
	type rowWant struct {
		row   uint64
		items []uint64
		hot   bool
	}
	rowIndex := map[uint64]*rowWant{}
	seenItem := map[uint64]bool{}
	var rows []*rowWant
	for _, it := range wanted {
		if it >= uint64(l.Items) || seenItem[it] {
			continue // out of range, or a duplicate lookup (served once)
		}
		seenItem[it] = true
		row := uint64(l.RowOf[it])
		rw, ok := rowIndex[row]
		if !ok {
			rw = &rowWant{row: row, hot: l.HotOf[row] >= 0}
			rowIndex[row] = rw
			rows = append(rows, rw)
		}
		rw.items = append(rw.items, it)
	}

	var hotWant, fullWant []uint64 // hot-local / grouped row ids, priority order
	for _, rw := range rows {
		if rw.hot {
			hotWant = append(hotWant, uint64(l.HotOf[rw.row]))
		} else {
			fullWant = append(fullWant, rw.row)
		}
	}

	served := func(row uint64) {
		rw := rowIndex[row]
		p.Retrieved = append(p.Retrieved, rw.items...)
		p.RowItems[row] = rw.items
	}
	dropped := func(row uint64) {
		p.Dropped = append(p.Dropped, rowIndex[row].items...)
	}

	if l.Params.HotRows > 0 {
		plan, err := batchpir.BuildPlan(l.HotCfg, hotWant, rng)
		if err != nil {
			return nil, err
		}
		p.HotOffsets = plan.Offsets
		p.HotServedRows = make([]int64, len(plan.Served))
		for b, hotLocal := range plan.Served {
			if hotLocal < 0 {
				p.HotServedRows[b] = -1
				continue
			}
			p.HotServedRows[b] = int64(l.HotRowIDs[hotLocal])
		}
		for _, hotLocal := range plan.Retrieved {
			served(l.HotRowIDs[hotLocal])
		}
		for _, hotLocal := range plan.Dropped {
			dropped(l.HotRowIDs[hotLocal])
		}
	} else if len(hotWant) > 0 {
		panic("codesign: hot rows planned without a hot table") // unreachable by construction
	}

	plan, err := batchpir.BuildPlan(l.FullCfg, fullWant, rng)
	if err != nil {
		return nil, err
	}
	p.FullOffsets = plan.Offsets
	p.FullServedRows = plan.Served
	for _, row := range plan.Retrieved {
		served(row)
	}
	for _, row := range plan.Dropped {
		dropped(row)
	}
	return p, nil
}

// OrderByFrequency sorts wanted items by descending training frequency so
// the most important lookups win bin collisions. Ties keep input order.
func OrderByFrequency(wanted []uint64, freq []int64) []uint64 {
	out := make([]uint64, len(wanted))
	copy(out, wanted)
	sort.SliceStable(out, func(a, b int) bool {
		var fa, fb int64
		if int(out[a]) < len(freq) {
			fa = freq[out[a]]
		}
		if int(out[b]) < len(freq) {
			fb = freq[out[b]]
		}
		return fa > fb
	})
	return out
}

// SimulateDrops plans every trace (cheaply — no cryptography) and returns
// the per-trace dropped-item sets, the input to model-quality evaluation.
func (l *Layout) SimulateDrops(traces [][]uint64, freq []int64, rng *rand.Rand) ([]map[uint64]bool, error) {
	out := make([]map[uint64]bool, len(traces))
	for i, tr := range traces {
		plan, err := l.Plan(OrderByFrequency(tr, freq), rng)
		if err != nil {
			return nil, err
		}
		m := map[uint64]bool{}
		for _, it := range plan.Dropped {
			m[it] = true
		}
		out[i] = m
	}
	return out, nil
}
