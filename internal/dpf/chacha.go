package dpf

import "math/bits"

// ChaChaPRG implements the GGM PRG with the ChaCha20 block function
// (RFC 8439). The node seed forms the 256-bit key (repeated twice); child
// seeds are the first 32 bytes of the block-0 keystream. ChaCha20 is an ARX
// cipher — adds, rotates, XORs — which GPUs execute natively, making it the
// paper's recommended standard-strength PRF for GPU PIR (Table 5: ~3.8x the
// AES-128 throughput).
type ChaChaPRG struct{}

// NewChaChaPRG returns the ChaCha20 PRG.
func NewChaChaPRG() *ChaChaPRG { return &ChaChaPRG{} }

// Name implements PRG.
func (*ChaChaPRG) Name() string { return "chacha20" }

// Construction implements PRG.
func (*ChaChaPRG) Construction() uint32 { return ConstructionChaCha20 }

// Expand implements PRG.
func (*ChaChaPRG) Expand(s Seed) (left, right Seed, tL, tR uint8) {
	var out [64]byte
	chachaBlock(&s, 0, &out)
	copy(left[:], out[0:16])
	copy(right[:], out[16:32])
	tL, tR = clearControlBits(&left, &right)
	return
}

// ExpandBatch implements PRG: the 64-byte block buffer is hoisted out of
// the per-node loop (ChaCha20 itself is already allocation-free).
func (*ChaChaPRG) ExpandBatch(seeds []Seed, left, right []Seed, tL, tR []uint8) {
	var out [64]byte
	for i := range seeds {
		chachaBlock(&seeds[i], 0, &out)
		copy(left[i][:], out[0:16])
		copy(right[i][:], out[16:32])
		tL[i], tR[i] = clearControlBits(&left[i], &right[i])
	}
}

// Fill implements PRG.
func (*ChaChaPRG) Fill(s Seed, dst []byte) {
	var out [64]byte
	ctr := uint32(1) // block 0 feeds Expand
	for off := 0; off < len(dst); off += 64 {
		chachaBlock(&s, ctr, &out)
		ctr++
		copy(dst[off:], out[:])
	}
}

// GPUCyclesPerBlock implements PRG (Table 5 ratio vs AES: ~3.8x faster).
func (*ChaChaPRG) GPUCyclesPerBlock() float64 { return 663 }

// CPUCyclesPerBlock implements PRG (vectorized ChaCha is fast on AVX2 but
// still slower than AES-NI per block).
func (*ChaChaPRG) CPUCyclesPerBlock() float64 { return 420 }

// chachaBlock computes one 64-byte ChaCha20 block. Key = seed||seed, nonce
// zero, 20 rounds per RFC 8439.
func chachaBlock(s *Seed, counter uint32, out *[64]byte) {
	var k [8]uint32
	for i := 0; i < 4; i++ {
		k[i] = leU32(s[i*4 : i*4+4])
		k[i+4] = k[i]
	}
	x := [16]uint32{
		0x61707865, 0x3320646e, 0x79622d32, 0x6b206574,
		k[0], k[1], k[2], k[3],
		k[4], k[5], k[6], k[7],
		counter, 0, 0, 0,
	}
	init := x
	for round := 0; round < 10; round++ {
		// Column rounds.
		quarter(&x[0], &x[4], &x[8], &x[12])
		quarter(&x[1], &x[5], &x[9], &x[13])
		quarter(&x[2], &x[6], &x[10], &x[14])
		quarter(&x[3], &x[7], &x[11], &x[15])
		// Diagonal rounds.
		quarter(&x[0], &x[5], &x[10], &x[15])
		quarter(&x[1], &x[6], &x[11], &x[12])
		quarter(&x[2], &x[7], &x[8], &x[13])
		quarter(&x[3], &x[4], &x[9], &x[14])
	}
	for i := 0; i < 16; i++ {
		v := x[i] + init[i]
		out[i*4] = byte(v)
		out[i*4+1] = byte(v >> 8)
		out[i*4+2] = byte(v >> 16)
		out[i*4+3] = byte(v >> 24)
	}
}

func quarter(a, b, c, d *uint32) {
	*a += *b
	*d = bits.RotateLeft32(*d^*a, 16)
	*c += *d
	*b = bits.RotateLeft32(*b^*c, 12)
	*a += *b
	*d = bits.RotateLeft32(*d^*a, 8)
	*c += *d
	*b = bits.RotateLeft32(*b^*c, 7)
}
