package strategy

import (
	"math/rand"
	"testing"

	"gpudpf/internal/dpf"
	"gpudpf/internal/gpu"
)

// This file pins every strategy's Model to the work its traversal does.
// Only MemBoundTree executes, so for the paper-only strategies a walker
// enumerates, node by node, what each traversal expands on a tree of
// `bits` levels whose walk stops `early` levels above the leaves — no AES,
// no table, only the tree's shape — and prices each node the way the
// kernels do: an expansion derives both children (dpf.BlocksPerExpand
// blocks), a path step derives one.

// countedModel is a Modeler whose PRF-block count takes the keys'
// early-termination depth; Model prices the default one (modelEarly).
type countedModel interface {
	Modeler
	prfBlocks(bits, early, batch int) int64
}

// models is every strategy the paper describes, as a model.
func models() []countedModel {
	return []countedModel{
		BranchParallel{}, LevelByLevel{}, CoopGroups{},
		CPUBaseline{Threads: 1}, CPUBaseline{Threads: 32},
		MultiGPU{Devices: 1}, MultiGPU{Devices: 2}, MultiGPU{Devices: 4}, MultiGPU{Devices: 8},
		MemBoundTree{K: 8, Fused: true}, MemBoundTree{K: 128, Fused: false},
	}
}

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

// walkBlocks counts the PRF blocks one query's traversal under m spends on
// a tree of the given depth and early-termination cut.
func walkBlocks(m Modeler, bits, early int) int64 {
	depth := bits - early
	groups := 1 << uint(depth) // terminal nodes
	var blocks int64
	expand := func(node) { blocks += dpf.BlocksPerExpand }
	switch m := m.(type) {
	case BranchParallel:
		// One thread per terminal node, each deriving only the child on
		// its path at every level.
		for g := 0; g < groups; g++ {
			for n := (node{}); n.level < depth; blocks++ {
				bit := g >> uint(depth-1-n.level) & 1
				n = node{n.level + 1, 2*n.index + bit}
			}
		}
	case MultiGPU:
		// Device s owns terminal nodes [s·G/N, (s+1)·G/N). It derives the
		// root-to-shard path down to its first terminal node, expanding
		// each node on it, then expands every node of its shard's subtree.
		n := m.n()
		for s := 0; s < n; s++ {
			first, end := s*groups/n, (s+1)*groups/n
			for level := 0; level < depth; level++ {
				expand(node{level, first >> uint(depth-level)})
			}
			internalNodes(node{}, depth, func(x node) {
				span := 1 << uint(depth-x.level)
				if lo := x.index * span; lo >= first && lo+span <= end {
					expand(x)
				}
			})
		}
	default:
		// Level-by-level, cooperative groups, the CPU library and the
		// memory-bounded descent expand every internal node once.
		internalNodes(node{}, depth, expand)
	}
	return blocks
}

// walkRangeBlocks counts the PRF blocks one query's memory-bounded descent
// spends on leaves [lo, hi): it expands every internal node whose leaf span
// meets the range, once. Over [0, 2^bits) this is walkBlocks; over a
// table's rows it is what a whole-table run of a non-power-of-two table
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

// TestRunCountsMatchModel pins the analytic count formulas to the work:
// for every model over bits 3–10 × early 0–2 × batch {1, 3, 8}, the
// walker's count equals the model's PRF-block count at that depth, and —
// at the default depth the analytic Model prices — Model(...).PRFBlocks.
// MemBoundTree's walk is also executed: its counted PRF blocks must equal
// the walk at every depth, and its counted peak memory Model's (it
// allocates its modeled working set).
func TestRunCountsMatchModel(t *testing.T) {
	dev := gpu.TeslaV100()
	prg := dpf.NewAESPRG()
	rng := rand.New(rand.NewSource(3))
	for bits := 3; bits <= 10; bits++ {
		tab := buildTable(t, 1<<uint(bits), 1, int64(bits))
		for early := 0; early <= 2; early++ {
			for _, batch := range []int{1, 3, 8} {
				for _, m := range models() {
					if mg, ok := m.(MultiGPU); ok && (mg.n() > 1<<uint(bits-early) || mg.n() >= 1<<uint(bits)) {
						continue // a device without a whole terminal node: shardDepth's floor prices no real split
					}
					var peak int64 // Model's, at the default depth
					walked := int64(batch) * walkBlocks(m, bits, early)
					if got := m.prfBlocks(bits, early, batch); got != walked {
						t.Errorf("%s bits=%d early=%d batch=%d: model counts %d PRF blocks, traversal walks %d",
							m.Name(), bits, early, batch, got, walked)
					}
					if early == modelEarly(bits) {
						rep, err := m.Model(dev, prg, bits, batch, tab.Lanes)
						if err != nil {
							t.Fatalf("%s bits=%d: %v", m.Name(), bits, err)
						}
						if rep.PRFBlocks != walked {
							t.Errorf("%s bits=%d batch=%d: Model reports %d PRF blocks, traversal walks %d",
								m.Name(), bits, batch, rep.PRFBlocks, walked)
						}
						peak = rep.PeakMemBytes
					}
					if s, ok := m.(Strategy); ok {
						keys := make([]*dpf.Key, batch)
						for q := range keys {
							k, _, err := dpf.GenEarly(prg, uint64(rng.Intn(tab.NumRows)), bits, []uint32{1}, early, rng)
							if err != nil {
								t.Fatal(err)
							}
							keys[q] = &k
						}
						var ctr gpu.Counters
						if _, err := Run(s, prg, keys, tab.View(), &ctr); err != nil {
							t.Fatal(err)
						}
						got := ctr.Snapshot()
						if got.PRFBlocks != walked {
							t.Errorf("%s bits=%d early=%d batch=%d: executed %d PRF blocks, traversal walks %d",
								s.Name(), bits, early, batch, got.PRFBlocks, walked)
						}
						if early == modelEarly(bits) && got.PeakMemBytes != peak {
							t.Errorf("%s bits=%d batch=%d: counted peak %d, model %d",
								s.Name(), bits, batch, got.PeakMemBytes, peak)
						}
					}
				}
			}
		}
	}
}
