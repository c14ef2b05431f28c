package dpf

import (
	"crypto/hmac"
	"crypto/sha256"
	"hash"
)

// SHA256PRG implements the GGM PRG with HMAC-SHA-256 keyed by the node seed,
// the hash-function row of Table 5. HMAC of a one-block message costs four
// SHA-256 compressions, which makes it the slowest PRF in the suite on both
// CPU and GPU — it is included for completeness and for deployments that
// standardize on hash-based PRFs.
type SHA256PRG struct{}

// NewSHA256PRG returns the HMAC-SHA-256 PRG.
func NewSHA256PRG() *SHA256PRG { return &SHA256PRG{} }

// Name implements PRG.
func (*SHA256PRG) Name() string { return "sha256" }

// Construction implements PRG.
func (*SHA256PRG) Construction() uint32 { return ConstructionSHA256 }

// Expand implements PRG.
func (*SHA256PRG) Expand(s Seed) (left, right Seed, tL, tR uint8) {
	mac := hmac.New(sha256.New, s[:])
	mac.Write([]byte{0})
	sum := mac.Sum(nil)
	copy(left[:], sum[0:16])
	copy(right[:], sum[16:32])
	tL, tR = clearControlBits(&left, &right)
	return
}

// ExpandBatch implements PRG. hmac.New allocates two fresh digests per
// node; here a single SHA-256 state, the key pads and the sum buffer are
// hoisted out of the loop and the HMAC composition H(opad‖H(ipad‖msg)) is
// applied manually, so the batch costs a handful of allocations total
// instead of several per node.
func (*SHA256PRG) ExpandBatch(seeds []Seed, left, right []Seed, tL, tR []uint8) {
	d := sha256.New()
	var pad [64]byte
	var msg [1]byte
	sum := make([]byte, 32)
	for i := range seeds {
		sum = hmacSeedSum(d, &pad, &seeds[i], msg[:], sum[:0])
		copy(left[i][:], sum[0:16])
		copy(right[i][:], sum[16:32])
		tL[i], tR[i] = clearControlBits(&left[i], &right[i])
	}
}

// hmacSeedSum computes HMAC-SHA-256(seed, msg) into out (cap ≥ 32),
// reusing the caller's digest and pad scratch. Bit-identical to
// hmac.New(sha256.New, seed[:]) — the 16-byte key is zero-padded to the
// 64-byte block per RFC 2104 — which the PRG equivalence tests pin.
func hmacSeedSum(d hash.Hash, pad *[64]byte, s *Seed, msg, out []byte) []byte {
	for i := 0; i < 16; i++ {
		pad[i] = s[i] ^ 0x36
	}
	for i := 16; i < 64; i++ {
		pad[i] = 0x36
	}
	d.Reset()
	d.Write(pad[:])
	d.Write(msg)
	inner := d.Sum(out[:0])
	for i := 0; i < 16; i++ {
		pad[i] = s[i] ^ 0x5c
	}
	for i := 16; i < 64; i++ {
		pad[i] = 0x5c
	}
	d.Reset()
	d.Write(pad[:])
	d.Write(inner)
	return d.Sum(inner[:0])
}

// Fill implements PRG.
func (*SHA256PRG) Fill(s Seed, dst []byte) {
	ctr := byte(1) // counter 0 feeds Expand
	for off := 0; off < len(dst); off += 32 {
		mac := hmac.New(sha256.New, s[:])
		mac.Write([]byte{ctr})
		ctr++
		sum := mac.Sum(nil)
		copy(dst[off:], sum)
	}
}

// GPUCyclesPerBlock implements PRG (Table 5: slightly slower than AES-128).
func (*SHA256PRG) GPUCyclesPerBlock() float64 { return 2620 }

// CPUCyclesPerBlock implements PRG.
func (*SHA256PRG) CPUCyclesPerBlock() float64 { return 520 }
