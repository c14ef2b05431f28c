// Package seedbaseline preserves the seed revision's per-query
// MemBoundTree hot path (commit 991b2b3, fused K-bounded walk) as a
// frozen benchmark baseline: one scalar PRF expansion per tree node,
// freshly appended child groups at every level, a byte-loop seed XOR, and
// the dot product fused per leaf, i.e. one full table pass per query.
// BenchmarkTiledAnswer and cmd/benchjson both measure the tiled path
// against exactly this code, so it must not inherit the live packages'
// walk and batching optimizations. The PRF is the live prg.Expand, so
// baseline and tiled path compute the same function and their answers
// stay identical. Counters are dropped; the strategy.ParallelFor query
// dispatch is kept so baseline and tiled path use the host the same way.
package seedbaseline

import (
	"encoding/binary"
	"runtime"

	"gpudpf/internal/dpf"
	"gpudpf/internal/strategy"
)

type node struct {
	s dpf.Seed
	t uint8
}

// stepBoth is the seed revision's StepBoth, including its byte-loop seed
// XOR (the live xorSeed is now two 64-bit ops — that win belongs to the
// measured side, not the baseline).
func stepBoth(prg dpf.PRG, s dpf.Seed, t uint8, cw dpf.CW) (ls dpf.Seed, lt uint8, rs dpf.Seed, rt uint8) {
	l, r, tl, tr := prg.Expand(s)
	if t == 1 {
		for i := range l {
			l[i] ^= cw.S[i]
			r[i] ^= cw.S[i]
		}
		tl ^= cw.TL
		tr ^= cw.TR
	}
	return l, tl, r, tr
}

// leafValue is the seed revision's LeafValueScalar under the live leaf
// conversion: a full-depth key's leaf share is the terminal seed's first
// word with its low bit set to the XOR of the low bits of words 1–3, so
// the baseline's answers stay identical to the tiled path's.
func leafValue(k *dpf.Key, s dpf.Seed, t uint8) uint32 {
	v := binary.LittleEndian.Uint32(s[0:4])
	v ^= (v ^ binary.LittleEndian.Uint32(s[4:8]) ^ binary.LittleEndian.Uint32(s[8:12]) ^ binary.LittleEndian.Uint32(s[12:16])) & 1
	if t == 1 {
		v += k.Final[0]
	}
	if k.Party == 1 {
		v = -v
	}
	return v
}

// Run evaluates the batch the way the seed MemBoundTree.Run did (fused,
// frontier width k) and returns one answer share per key.
func Run(prg dpf.PRG, keys []*dpf.Key, tab *strategy.Table, k int) [][]uint32 {
	bits := tab.Bits()
	answers := make([][]uint32, len(keys))
	strategy.ParallelFor(len(keys), runtime.GOMAXPROCS(0), func(q int) {
		key := keys[q]
		ans := make([]uint32, tab.Lanes)
		var walk func(nodes []node, depth int, base uint64)
		walk = func(nodes []node, depth int, base uint64) {
			if depth == bits {
				for i, nd := range nodes {
					j := base + uint64(i)
					leaf := leafValue(key, nd.s, nd.t)
					if j < uint64(tab.NumRows) {
						for l, v := range tab.Row(int(j)) {
							ans[l] += leaf * v
						}
					}
				}
				return
			}
			cw := key.CWs[depth]
			children := make([]node, 0, 2*len(nodes))
			for _, nd := range nodes {
				ls, lt, rs, rt := stepBoth(prg, nd.s, nd.t, cw)
				children = append(children, node{ls, lt}, node{rs, rt})
			}
			if len(children) <= k {
				walk(children, depth+1, base)
				return
			}
			half := len(children) / 2
			span := uint64(1) << uint(bits-depth-1)
			walk(children[:half], depth+1, base)
			walk(children[half:], depth+1, base+uint64(half)*span)
		}
		walk([]node{{key.Root, key.Party}}, 0, 0)
		answers[q] = ans
	})
	return answers
}
