package strategy

import "gpudpf/internal/dpf"

// This file is a count-only walker of the memory-bounded descent: it
// enumerates, node by node, what the walk expands on a tree of `bits`
// levels whose walk stops `early` levels above the leaves — no AES, no
// table, only the tree's shape — pricing each expansion at
// dpf.BlocksPerExpand blocks. The executor's counted PRF blocks are pinned
// to it.

// node is a tree node: its level (0 = root) and its index within the level.
type node struct{ level, index int }

// internalNodes visits every node of the subtree rooted at n above the
// terminal level depth, in depth-first order.
func internalNodes(n node, depth int, visit func(node)) {
	if n.level == depth {
		return
	}
	visit(n)
	internalNodes(node{n.level + 1, 2 * n.index}, depth, visit)
	internalNodes(node{n.level + 1, 2*n.index + 1}, depth, visit)
}

// walkRangeBlocks counts the PRF blocks one query's memory-bounded descent
// spends on leaves [lo, hi): it expands every internal node whose leaf span
// meets the range, once. Over a table's rows it is what a whole-table run
// counts, since the walk stops at the last row.
func walkRangeBlocks(bits, early int, lo, hi uint64) int64 {
	var blocks int64
	internalNodes(node{}, bits-early, func(n node) {
		span := uint64(1) << uint(bits-n.level)
		if first := uint64(n.index) * span; first < hi && first+span > lo {
			blocks += dpf.BlocksPerExpand
		}
	})
	return blocks
}
