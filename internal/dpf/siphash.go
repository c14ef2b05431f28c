package dpf

import (
	"encoding/binary"
	"math/bits"
)

// SipPRG implements the GGM PRG with SipHash-2-4 (Aumasson–Bernstein), the
// fastest PRF the paper evaluates (Table 5: ~7.7x AES-128 throughput on the
// GPU). SipHash is a 64-bit-output keyed PRF designed for short inputs; it
// is *not* as widely analyzed as AES or ChaCha20 for this use — the paper
// flags the same security/performance trade-off (§3.2.6), and so do we:
// prefer aes128 or chacha20 unless the threat model tolerates it.
//
// The node seed is the 128-bit SipHash key; the four 64-bit child words are
// SipHash(key, 0..3).
type SipPRG struct{}

// NewSipPRG returns the SipHash-2-4 PRG.
func NewSipPRG() *SipPRG { return &SipPRG{} }

// Name implements PRG.
func (*SipPRG) Name() string { return "siphash" }

// Construction implements PRG.
func (*SipPRG) Construction() uint32 { return ConstructionSipHash }

// Expand implements PRG.
func (*SipPRG) Expand(s Seed) (left, right Seed, tL, tR uint8) {
	k0 := leU64(s[0:8])
	k1 := leU64(s[8:16])
	putU64(left[0:8], siphash24(k0, k1, 0))
	putU64(left[8:16], siphash24(k0, k1, 1))
	putU64(right[0:8], siphash24(k0, k1, 2))
	putU64(right[8:16], siphash24(k0, k1, 3))
	tL, tR = clearControlBits(&left, &right)
	return
}

// ExpandBatch implements PRG: the key words are decoded once per node and
// the four child halves derived back to back (SipHash is allocation-free
// already; batching removes the per-call Seed copies and bounds checks).
func (*SipPRG) ExpandBatch(seeds []Seed, left, right []Seed, tL, tR []uint8) {
	for i := range seeds {
		k0 := leU64(seeds[i][0:8])
		k1 := leU64(seeds[i][8:16])
		putU64(left[i][0:8], siphash24(k0, k1, 0))
		putU64(left[i][8:16], siphash24(k0, k1, 1))
		putU64(right[i][0:8], siphash24(k0, k1, 2))
		putU64(right[i][8:16], siphash24(k0, k1, 3))
		tL[i], tR[i] = clearControlBits(&left[i], &right[i])
	}
}

// Fill implements PRG.
func (*SipPRG) Fill(s Seed, dst []byte) {
	k0 := leU64(s[0:8])
	k1 := leU64(s[8:16])
	ctr := uint64(4) // 0..3 feed Expand
	var w [8]byte
	for off := 0; off < len(dst); off += 8 {
		putU64(w[:], siphash24(k0, k1, ctr))
		ctr++
		copy(dst[off:], w[:])
	}
}

// GPUCyclesPerBlock implements PRG (Table 5 ratio vs AES: ~7.7x faster; one
// "block" here is two 64-bit SipHash outputs).
func (*SipPRG) GPUCyclesPerBlock() float64 { return 324 }

// CPUCyclesPerBlock implements PRG.
func (*SipPRG) CPUCyclesPerBlock() float64 { return 130 }

// siphash24 computes SipHash-2-4 of an 8-byte little-endian message m under
// key (k0, k1).
func siphash24(k0, k1, m uint64) uint64 {
	v0 := k0 ^ 0x736f6d6570736575
	v1 := k1 ^ 0x646f72616e646f6d
	v2 := k0 ^ 0x6c7967656e657261
	v3 := k1 ^ 0x7465646279746573

	// Message block (8 bytes) followed by the length byte b = 8<<56.
	b := uint64(8) << 56

	v3 ^= m
	sipRound(&v0, &v1, &v2, &v3)
	sipRound(&v0, &v1, &v2, &v3)
	v0 ^= m

	v3 ^= b
	sipRound(&v0, &v1, &v2, &v3)
	sipRound(&v0, &v1, &v2, &v3)
	v0 ^= b

	v2 ^= 0xff
	sipRound(&v0, &v1, &v2, &v3)
	sipRound(&v0, &v1, &v2, &v3)
	sipRound(&v0, &v1, &v2, &v3)
	sipRound(&v0, &v1, &v2, &v3)
	return v0 ^ v1 ^ v2 ^ v3
}

func sipRound(v0, v1, v2, v3 *uint64) {
	*v0 += *v1
	*v1 = bits.RotateLeft64(*v1, 13)
	*v1 ^= *v0
	*v0 = bits.RotateLeft64(*v0, 32)
	*v2 += *v3
	*v3 = bits.RotateLeft64(*v3, 16)
	*v3 ^= *v2
	*v0 += *v3
	*v3 = bits.RotateLeft64(*v3, 21)
	*v3 ^= *v0
	*v2 += *v1
	*v1 = bits.RotateLeft64(*v1, 17)
	*v1 ^= *v2
	*v2 = bits.RotateLeft64(*v2, 32)
}

func leU64(b []byte) uint64 {
	return binary.LittleEndian.Uint64(b)
}
