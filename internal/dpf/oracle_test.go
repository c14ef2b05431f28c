package dpf

import (
	"encoding/binary"
	"fmt"
)

// The scalar references every batched and fused kernel is pinned to. They
// spell the construction one node and one branch at a time, with none of
// the served path's masks, chunking or frontier buffers, so a kernel that
// drifts from the definition fails against them.

// step descends one level of the evaluation tree: given the node state
// (seed, control bit) and this level's correction word, it returns the
// state of the child selected by bit (0 = left, 1 = right).
func step(prg PRG, s Seed, t uint8, cw CW, bit uint8) (Seed, uint8) {
	l, r, tl, tr := prg.Expand(s)
	if t == 1 {
		l = xorSeed(l, cw.S)
		r = xorSeed(r, cw.S)
		tl ^= cw.TL
		tr ^= cw.TR
	}
	if bit == 0 {
		return l, tl
	}
	return r, tr
}

// leafValue converts one terminal node state into this party's shares of
// the node's whole leaf group, and defines the conversion: leaf i of the
// group is the seed's i-th little-endian 32-bit word w_i, except that
// w_0's low bit is set to the XOR of the low bits of w_1, w_2 and w_3,
// plus Final[i] under control bit 1, negated for party 1. dst must have
// GroupSize() entries; it is returned.
func leafValue(k *Key, s Seed, t uint8, dst []uint32) []uint32 {
	var w [4]uint32
	for i := range w {
		w[i] = leU32(s[4*i : 4*i+4])
	}
	w[0] = w[0]&^1 | (w[1]^w[2]^w[3])&1
	dst = dst[:k.GroupSize()]
	for i := range dst {
		v := w[i]
		if t == 1 {
			v += k.Final[i]
		}
		if k.Party == 1 {
			v = -v
		}
		dst[i] = v
	}
	return dst
}

// evalAt evaluates the key at a single index x, walking one root-to-
// terminal path (TreeDepth PRF calls) and converting the terminal seed's
// group, of which x's slot is returned.
func evalAt(prg PRG, k *Key, x uint64) (uint32, error) {
	if x >= k.Domain() {
		return 0, fmt.Errorf("dpf: index %d outside domain 2^%d", x, k.Bits)
	}
	s, t := k.Root, k.Party
	for level := 0; level < k.TreeDepth(); level++ {
		bit := uint8(x>>uint(k.Bits-1-level)) & 1
		s, t = step(prg, s, t, k.CWs[level], bit)
	}
	var group [4]uint32
	return leafValue(k, s, t, group[:])[int(x)&(k.GroupSize()-1)], nil
}

// scalarExpandBatch is ExpandBatch by looping the scalar Expand: the
// semantics every native batch implementation must match bit for bit.
func scalarExpandBatch(p PRG, seeds []Seed, left, right []Seed, tL, tR []uint8) {
	for i := range seeds {
		left[i], right[i], tL[i], tR[i] = p.Expand(seeds[i])
	}
}

// expandFrontier walks the key's whole tree breadth-first, one
// StepBothBatch per level, and returns the terminal frontier: Domain() >>
// Early seeds and control bits, node g covering leaves [g<<Early,
// (g+1)<<Early). It is the unfused pipeline EvalFullInto's fused last
// step is pinned to.
func expandFrontier(prg PRG, k *Key) ([]Seed, []uint8) {
	var sc BatchScratch
	seeds, ts := []Seed{k.Root}, []uint8{k.Party}
	for level := 0; level < k.TreeDepth(); level++ {
		next := make([]Seed, 2*len(seeds))
		nextT := make([]uint8, 2*len(seeds))
		StepBothBatch(prg, seeds, ts, k.CWs[level], next, nextT, &sc)
		seeds, ts = next, nextT
	}
	return seeds, ts
}

func leU32(b []byte) uint32 {
	return binary.LittleEndian.Uint32(b)
}
