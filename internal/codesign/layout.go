// Package codesign implements the paper's PIR+ML co-optimizations (§4.2):
//
//   - access-pattern-aware embedding co-location: the top-C companions that
//     co-occur with an embedding are stored in its row, so one PIR query
//     can return several wanted embeddings;
//   - frequency-based hot-table split: the top-K most frequently accessed
//     rows are duplicated into a small hot table that is far cheaper to
//     query privately;
//   - fixed per-inference query budgets Q_hot and Q_full realized as PBR
//     bin counts, so the query count and shape leak nothing about the
//     access pattern (dummies fill unused budget, overflow is dropped);
//   - a grid-search planner that sweeps these parameters and reports the
//     quality/computation/communication pareto frontier (Figures 16–20).
//
// All preprocessing statistics (frequency, co-occurrence) come from the
// training split only; quality is reported on held-out data, matching the
// paper's methodology.
package codesign

import (
	"fmt"

	"gpudpf/internal/batchpir"
	"gpudpf/internal/data"
)

// Params are the co-design knobs the planner sweeps.
type Params struct {
	// C is the number of co-located companions per row (0 disables
	// co-location; paper finds 4–5 good for language, 1–3 for
	// recommendation).
	C int
	// HotRows is the hot table's row count in *grouped* rows (0 disables
	// the split; paper finds 10–20% of the table a good choice).
	HotRows int
	// QHot and QFull are the fixed per-inference query budgets (PBR bin
	// counts). QFull must be ≥ 1; QHot must be ≥ 1 iff HotRows > 0.
	QHot, QFull int
}

// Layout is a preprocessed serving layout for one embedding table.
type Layout struct {
	// Items is the original index space; Dim the embedding width.
	Items, Dim int
	// Params records the knobs that produced this layout.
	Params Params
	// Groups[r] lists the original indices co-located into grouped row r.
	Groups [][]uint64
	// RowOf maps an original index to its grouped row; SlotOf to its slot
	// within the row.
	RowOf  []int32
	SlotOf []int8
	// HotOf maps a grouped row to its hot-table row, or -1.
	HotOf []int32
	// HotRowIDs maps hot-table rows back to grouped rows, most frequent
	// first.
	HotRowIDs []uint64
	// HotCfg and FullCfg are the PBR segmentations (HotCfg is zero when
	// the split is disabled).
	HotCfg, FullCfg batchpir.Config
}

// GroupLanes is the grouped row width in float32 lanes.
func (l *Layout) GroupLanes() int { return l.Dim * (l.Params.C + 1) }

// EffectiveQHot and EffectiveQFull are the realized per-inference query
// counts (the PBR bin counts; ceil rounding can land just under the
// requested budget). They depend only on public parameters, never on the
// access pattern.
func (l *Layout) EffectiveQHot() int {
	if l.Params.HotRows == 0 {
		return 0
	}
	return l.HotCfg.NumBins()
}

// EffectiveQFull is the realized full-table query count.
func (l *Layout) EffectiveQFull() int { return l.FullCfg.NumBins() }

// BuildLayout preprocesses a table layout from training statistics: freq
// holds per-index access counts and cooccur per-index companion lists (from
// data.Cooccur; only the first C are used). Both come from the training
// split.
func BuildLayout(items, dim int, freq []int64, cooccur [][]uint64, p Params) (*Layout, error) {
	if items <= 0 || dim <= 0 {
		return nil, fmt.Errorf("codesign: invalid table shape %dx%d", items, dim)
	}
	if len(freq) != items {
		return nil, fmt.Errorf("codesign: freq has %d entries for %d items", len(freq), items)
	}
	if p.C < 0 {
		return nil, fmt.Errorf("codesign: negative C")
	}
	if p.QFull < 1 {
		return nil, fmt.Errorf("codesign: QFull must be >= 1")
	}
	l := &Layout{Items: items, Dim: dim, Params: p}
	l.buildGroups(freq, cooccur)
	if p.HotRows > len(l.Groups) {
		return nil, fmt.Errorf("codesign: HotRows %d exceeds %d groups", p.HotRows, len(l.Groups))
	}
	if p.HotRows > 0 && p.QHot < 1 {
		return nil, fmt.Errorf("codesign: hot table needs QHot >= 1")
	}
	if p.QHot > p.HotRows {
		p.QHot = p.HotRows // more queries than rows is pointless
		l.Params.QHot = p.QHot
	}
	if p.QFull > len(l.Groups) {
		p.QFull = len(l.Groups)
		l.Params.QFull = p.QFull
	}
	l.buildHot(freq)
	l.FullCfg = batchpir.Config{
		NumRows: len(l.Groups),
		BinSize: ceilDiv(len(l.Groups), p.QFull),
	}
	if p.HotRows > 0 {
		l.HotCfg = batchpir.Config{
			NumRows: p.HotRows,
			BinSize: ceilDiv(p.HotRows, p.QHot),
		}
	}
	return l, nil
}

// buildGroups runs the greedy co-location: walk items by frequency, start a
// group at each unassigned item, and pull in its top unassigned companions.
func (l *Layout) buildGroups(freq []int64, cooccur [][]uint64) {
	items := l.Items
	c := l.Params.C
	l.RowOf = make([]int32, items)
	l.SlotOf = make([]int8, items)
	for i := range l.RowOf {
		l.RowOf[i] = -1
	}
	order := data.TopK(freq, items)
	for _, it := range order {
		if l.RowOf[it] >= 0 {
			continue
		}
		group := []uint64{it}
		if c > 0 && int(it) < len(cooccur) {
			for _, comp := range cooccur[it] {
				if len(group) == c+1 {
					break
				}
				if comp < uint64(items) && l.RowOf[comp] < 0 && comp != it {
					group = append(group, comp)
				}
			}
		}
		row := int32(len(l.Groups))
		for slot, member := range group {
			l.RowOf[member] = row
			l.SlotOf[member] = int8(slot)
		}
		l.Groups = append(l.Groups, group)
	}
}

// buildHot picks the top-HotRows grouped rows by aggregate member
// frequency.
func (l *Layout) buildHot(freq []int64) {
	l.HotOf = make([]int32, len(l.Groups))
	for i := range l.HotOf {
		l.HotOf[i] = -1
	}
	if l.Params.HotRows == 0 {
		return
	}
	rowFreq := make([]int64, len(l.Groups))
	for r, group := range l.Groups {
		for _, member := range group {
			rowFreq[r] += freq[member]
		}
	}
	l.HotRowIDs = data.TopK(rowFreq, l.Params.HotRows)
	for hot, row := range l.HotRowIDs {
		l.HotOf[row] = int32(hot)
	}
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }
