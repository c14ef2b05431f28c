package dpf

import "math/bits"

// HighwayPRG implements the GGM PRG with a HighwayHash-style keyed
// permutation: a 1024-bit state (four 256-bit vectors) updated with
// multiply-add and zipper-merge style mixing, which is the instruction mix
// HighwayHash relies on. It fills Table 5's "HighwayHash PRF" row.
//
// NOTE: this is a HighwayHash-*style* PRF, not the reference HighwayHash
// (we do not claim test-vector compatibility), and like SipHash it is not a
// conservatively analyzed PRF — the paper draws the same caveat. It
// stands in for the reference HighwayHash the paper benchmarks because the
// module takes no dependency outside the standard library; Table 5's
// figures come from the modeled cycle costs below, not from this code.
type HighwayPRG struct{}

// NewHighwayPRG returns the HighwayHash-style PRG.
func NewHighwayPRG() *HighwayPRG { return &HighwayPRG{} }

// Name implements PRG.
func (*HighwayPRG) Name() string { return "highway" }

// Construction implements PRG.
func (*HighwayPRG) Construction() uint32 { return ConstructionHighway }

// Expand implements PRG.
func (*HighwayPRG) Expand(s Seed) (left, right Seed, tL, tR uint8) {
	var st hwState
	st.reset(&s)
	st.update(0)
	var out [32]byte
	st.finalize(&out)
	copy(left[:], out[0:16])
	copy(right[:], out[16:32])
	tL, tR = clearControlBits(&left, &right)
	return
}

// ExpandBatch implements PRG: one hwState and output buffer are hoisted
// out of the loop and re-keyed per node.
func (*HighwayPRG) ExpandBatch(seeds []Seed, left, right []Seed, tL, tR []uint8) {
	var st hwState
	var out [32]byte
	for i := range seeds {
		st.reset(&seeds[i])
		st.update(0)
		st.finalize(&out)
		copy(left[i][:], out[0:16])
		copy(right[i][:], out[16:32])
		tL[i], tR[i] = clearControlBits(&left[i], &right[i])
	}
}

// Fill implements PRG.
func (*HighwayPRG) Fill(s Seed, dst []byte) {
	var st hwState
	var out [32]byte
	ctr := uint64(1)
	for off := 0; off < len(dst); off += 32 {
		st.reset(&s)
		st.update(ctr)
		ctr++
		st.finalize(&out)
		copy(dst[off:], out[:])
	}
}

// GPUCyclesPerBlock implements PRG (Table 5 ratio vs AES: ~2x faster).
func (*HighwayPRG) GPUCyclesPerBlock() float64 { return 1224 }

// CPUCyclesPerBlock implements PRG (HighwayHash targets AVX2 SIMD).
func (*HighwayPRG) CPUCyclesPerBlock() float64 { return 160 }

// hwState is the 1024-bit HighwayHash-style state: v0, v1 are the mixing
// vectors, mul0, mul1 accumulate multiply results.
type hwState struct {
	v0, v1, mul0, mul1 [4]uint64
}

var hwInit0 = [4]uint64{0xdbe6d5d5fe4cce2f, 0xa4093822299f31d0, 0x13198a2e03707344, 0x243f6a8885a308d3}
var hwInit1 = [4]uint64{0x3bd39e10cb0ef593, 0xc0acf169b5f18a8c, 0xbe5466cf34e90c6c, 0x452821e638d01377}

func (h *hwState) reset(s *Seed) {
	k0 := leU64(s[0:8])
	k1 := leU64(s[8:16])
	key := [4]uint64{k0, k1, bits.RotateLeft64(k0, 32), bits.RotateLeft64(k1, 32)}
	for i := 0; i < 4; i++ {
		h.mul0[i] = hwInit0[i]
		h.mul1[i] = hwInit1[i]
		h.v0[i] = key[i] ^ hwInit0[i]
		h.v1[i] = bits.RotateLeft64(key[i], 17) ^ hwInit1[i]
	}
}

// update absorbs one 256-bit block derived from the counter (broadcast into
// the four lanes with distinct tweaks, as HighwayHash lanes do).
func (h *hwState) update(ctr uint64) {
	var lanes [4]uint64
	for i := range lanes {
		lanes[i] = ctr + uint64(i)*0x9e3779b97f4a7c15
	}
	for round := 0; round < 4; round++ {
		for i := 0; i < 4; i++ {
			h.v1[i] += h.mul0[i] + lanes[i]
			h.mul0[i] ^= (h.v1[i] & 0xffffffff) * (h.v0[i] >> 32)
			h.v0[i] += h.mul1[i]
			h.mul1[i] ^= (h.v0[i] & 0xffffffff) * (h.v1[i] >> 32)
			h.v0[i] += zipperMerge(h.v1[i])
			h.v1[i] += zipperMerge(h.v0[i])
		}
		// Cross-lane diffusion so every output lane depends on every key
		// lane (the reference hash achieves this with its permute step).
		for i := 0; i < 4; i++ {
			h.v0[i] += h.v1[(i+1)&3]
			h.mul0[i] ^= h.mul1[(i+3)&3]
		}
	}
}

// zipperMerge permutes the bytes of v so multiply carries diffuse across
// byte positions, mirroring the role of HighwayHash's zipper-merge step.
func zipperMerge(v uint64) uint64 {
	var b [8]byte
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
	p := [8]byte{b[3], b[6], b[2], b[5], b[1], b[4], b[0], b[7]}
	var out uint64
	for i := 7; i >= 0; i-- {
		out = out<<8 | uint64(p[i])
	}
	return out
}

func (h *hwState) finalize(out *[32]byte) {
	for i := 0; i < 4; i++ {
		// Each output word folds one lane from each state vector, offset so
		// both key parities contribute, then runs a strong ARX finalizer.
		v := h.v0[i] + h.v1[(i+1)&3] + h.mul0[(i+2)&3] + h.mul1[(i+3)&3]
		v ^= v >> 33
		v *= 0xff51afd7ed558ccd
		v ^= v >> 33
		v *= 0xc4ceb9fe1a85ec53
		v ^= v >> 33
		putU64(out[i*8:i*8+8], v)
	}
}
