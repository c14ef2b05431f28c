package data

import "sort"

// Freq counts how often each index appears across traces; the hot-table
// preprocessing consumes this.
func Freq(traces [][]uint64, items int) []int64 {
	counts := make([]int64, items)
	for _, tr := range traces {
		for _, idx := range tr {
			if idx < uint64(items) {
				counts[idx]++
			}
		}
	}
	return counts
}

// TopK returns the k most frequent indices, most frequent first (ties
// broken by index for determinism).
func TopK(counts []int64, k int) []uint64 {
	idx := make([]uint64, len(counts))
	for i := range idx {
		idx[i] = uint64(i)
	}
	sort.Slice(idx, func(a, b int) bool {
		if counts[idx[a]] != counts[idx[b]] {
			return counts[idx[a]] > counts[idx[b]]
		}
		return idx[a] < idx[b]
	})
	if k > len(idx) {
		k = len(idx)
	}
	return idx[:k]
}

// Cooccur counts, for each index, how often every other index appears in
// the same trace, returning the top-C companions per index. Pair counting
// is capped per trace (each unordered pair once), matching the co-location
// profiling of §4.2.
func Cooccur(traces [][]uint64, items, c int) [][]uint64 {
	counts := make([]map[uint64]int64, items)
	for _, tr := range traces {
		for i := 0; i < len(tr); i++ {
			for j := i + 1; j < len(tr); j++ {
				a, b := tr[i], tr[j]
				if a == b || a >= uint64(items) || b >= uint64(items) {
					continue
				}
				if counts[a] == nil {
					counts[a] = map[uint64]int64{}
				}
				if counts[b] == nil {
					counts[b] = map[uint64]int64{}
				}
				counts[a][b]++
				counts[b][a]++
			}
		}
	}
	out := make([][]uint64, items)
	for i := range out {
		m := counts[i]
		if len(m) == 0 {
			continue
		}
		comp := make([]uint64, 0, len(m))
		for k := range m {
			comp = append(comp, k)
		}
		sort.Slice(comp, func(a, b int) bool {
			if m[comp[a]] != m[comp[b]] {
				return m[comp[a]] > m[comp[b]]
			}
			return comp[a] < comp[b]
		})
		if len(comp) > c {
			comp = comp[:c]
		}
		out[i] = comp
	}
	return out
}
