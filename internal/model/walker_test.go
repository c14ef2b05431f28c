package model

import (
	"math/rand"
	"testing"

	"gpudpf/internal/dpf"
	"gpudpf/internal/strategy"
)

// This file pins every model to the work its traversal does, and
// MemBound to what the host executor (strategy.MemBoundTree) counts. Only
// MemBoundTree executes, so for the paper-only strategies a walker
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
		MemBound{K: 8, Fused: true}, MemBound{K: 128, Fused: false},
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

// buildTable is a rows × lanes table of seeded random words.
func buildTable(t *testing.T, rows, lanes int, seed int64) *strategy.Table {
	t.Helper()
	tab, err := strategy.NewTable(rows, lanes)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := range tab.Data {
		tab.Data[i] = rng.Uint32()
	}
	return tab
}

// TestRunCountsMatchModel pins the analytic count formulas to the work:
// for every model over bits 3–10 × early 0–2 × batch {1, 3, 8}, the
// walker's count equals the model's PRF-block count at that depth, and —
// at the default depth the analytic Model prices — Model(...).PRFBlocks.
// MemBound's traversal is also executed by strategy.MemBoundTree: its
// counted PRF blocks must equal the walk at every depth.
func TestRunCountsMatchModel(t *testing.T) {
	dev := TeslaV100()
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
					walked := int64(batch) * walkBlocks(m, bits, early)
					if got := m.prfBlocks(bits, early, batch); got != walked {
						t.Errorf("%s bits=%d early=%d batch=%d: model counts %d PRF blocks, traversal walks %d",
							m.Name(), bits, early, batch, got, walked)
					}
					if early == modelEarly(bits) {
						rep, err := m.Model(dev, AES128, bits, batch, tab.Lanes)
						if err != nil {
							t.Fatalf("%s bits=%d: %v", m.Name(), bits, err)
						}
						if rep.PRFBlocks != walked {
							t.Errorf("%s bits=%d batch=%d: Model reports %d PRF blocks, traversal walks %d",
								m.Name(), bits, batch, rep.PRFBlocks, walked)
						}
					}
					mb, ok := m.(MemBound)
					if !ok {
						continue
					}
					keys := make([]*dpf.Key, batch)
					for q := range keys {
						k, _, err := dpf.GenEarly(prg, uint64(rng.Intn(tab.NumRows)), bits, 1, early, rng)
						if err != nil {
							t.Fatal(err)
						}
						keys[q] = &k
					}
					var ctr strategy.Counters
					if _, err := strategy.Run(strategy.MemBoundTree{K: mb.K}, prg, keys, tab.View(), &ctr); err != nil {
						t.Fatal(err)
					}
					if got := ctr.Snapshot().PRFBlocks; got != walked {
						t.Errorf("%s bits=%d early=%d batch=%d: executed %d PRF blocks, traversal walks %d",
							mb.Name(), bits, early, batch, got, walked)
					}
				}
			}
		}
	}
}

// TestExecutorCountersMatchModel: where the host and the fused model count
// the same work — a power-of-two table, default-format keys, a batch of at
// most one 32-key tile, one worker — strategy.MemBoundTree's counters
// equal MemBound's Model: PRF blocks walked and table bytes streamed,
// whatever the frontier width. (With more workers a narrow tile's leaf
// range is split across the cores, and each part walks one extra
// root-to-cut path the model does not price.)
func TestExecutorCountersMatchModel(t *testing.T) {
	dev := TeslaV100()
	prg := dpf.NewAESPRG()
	rng := rand.New(rand.NewSource(40))
	for _, shape := range []struct{ bits, lanes int }{{6, 1}, {9, 3}, {12, 16}} {
		tab := buildTable(t, 1<<shape.bits, shape.lanes, int64(shape.bits))
		for _, batch := range []int{1, 5, 32} {
			keys := make([]*dpf.Key, batch)
			for q := range keys {
				k, _, err := dpf.Gen(prg, uint64(rng.Intn(tab.NumRows)), shape.bits, 1, rng)
				if err != nil {
					t.Fatal(err)
				}
				keys[q] = &k
			}
			for _, k := range []int{8, DefaultK} {
				rep, err := (MemBound{K: k, Fused: true}).Model(dev, AES128, shape.bits, batch, shape.lanes)
				if err != nil {
					t.Fatal(err)
				}
				want := strategy.Stats{PRFBlocks: rep.PRFBlocks, ReadBytes: tableReadBytes(batch, shape.bits, shape.lanes)}
				var ctr strategy.Counters
				if _, err := strategy.Run(strategy.MemBoundTree{K: k, Workers: 1}, prg, keys, tab.View(), &ctr); err != nil {
					t.Fatal(err)
				}
				if got := ctr.Snapshot(); got != want {
					t.Errorf("2^%d×%d batch=%d K=%d: host counted %+v, model %+v",
						shape.bits, shape.lanes, batch, k, got, want)
				}
			}
		}
	}
}
