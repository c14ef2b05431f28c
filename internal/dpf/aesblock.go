package dpf

import "encoding/binary"

// Software AES-128: the portable body of AESPRG's G (T-tables, no heap,
// no cipher.Block indirection) and the key expansion that computes the
// fixed keys' schedules once for every body. Correctness is pinned to
// crypto/aes by TestAESBlockMatchesStdlib (random keys) and
// TestAESKernelKnownAnswer (the fixed keys).

// aesSbox is the AES S-box (FIPS 197 figure 7).
var aesSbox = [256]byte{
	0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
	0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
	0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
	0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
	0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
	0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
	0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
	0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
	0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
	0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
	0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
	0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
	0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
	0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
	0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
	0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
}

// aesRcon holds the round constants x^(i) in GF(2^8) for the key expansion.
var aesRcon = [10]byte{0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36}

// aesTe are the combined SubBytes+MixColumns lookup tables (one rotation
// per table), built once at init from the S-box.
var aesTe [4][256]uint32

func init() {
	for i := 0; i < 256; i++ {
		s := aesSbox[i]
		s2 := aesXtime(s)
		s3 := s2 ^ s
		w := uint32(s2)<<24 | uint32(s)<<16 | uint32(s)<<8 | uint32(s3)
		aesTe[0][i] = w
		aesTe[1][i] = w>>8 | w<<24
		aesTe[2][i] = w>>16 | w<<16
		aesTe[3][i] = w>>24 | w<<8
	}
}

// aesXtime multiplies by x in GF(2^8) mod x^8+x^4+x^3+x+1.
func aesXtime(b byte) byte {
	r := b << 1
	if b&0x80 != 0 {
		r ^= 0x1b
	}
	return r
}

// aesRoundKeys is an expanded AES-128 key schedule: 11 round keys of four
// big-endian words each.
type aesRoundKeys [44]uint32

// expand derives the round keys from a 16-byte key (FIPS 197 §5.2),
// unrolled four words per round so only the SubWord step pays for lookups.
func (rk *aesRoundKeys) expand(key *Seed) {
	w0 := beU32(key[0:4])
	w1 := beU32(key[4:8])
	w2 := beU32(key[8:12])
	w3 := beU32(key[12:16])
	rk[0], rk[1], rk[2], rk[3] = w0, w1, w2, w3
	for r := 0; r < 10; r++ {
		t := w3<<8 | w3>>24 // RotWord
		t = uint32(aesSbox[t>>24])<<24 | uint32(aesSbox[t>>16&0xff])<<16 |
			uint32(aesSbox[t>>8&0xff])<<8 | uint32(aesSbox[t&0xff]) // SubWord
		w0 ^= t ^ uint32(aesRcon[r])<<24
		w1 ^= w0
		w2 ^= w1
		w3 ^= w2
		rk[4*r+4], rk[4*r+5], rk[4*r+6], rk[4*r+7] = w0, w1, w2, w3
	}
}

// aesG computes G(s) (see AESPRG) under the schedules kl and kr: left =
// π_L(x) ^ x, right = π_R(x) ^ x for x = σ(s). The two encryptions run as
// interleaved dependency chains, so the load-bound T-table rounds overlap
// in the pipeline, and the feed-forward folds into the last round's
// output. s is read in full before left and right are written.
func aesG(kl, kr *aesRoundKeys, left, right, s *Seed) {
	// σ(s) as big-endian state words: bytes 0-7 of x are s_hi, bytes
	// 8-15 are s_hi ^ s_lo.
	x0, x1 := beU32(s[8:12]), beU32(s[12:16])
	x2, x3 := x0^beU32(s[0:4]), x1^beU32(s[4:8])
	a0, a1, a2, a3 := x0^kl[0], x1^kl[1], x2^kl[2], x3^kl[3]
	b0, b1, b2, b3 := x0^kr[0], x1^kr[1], x2^kr[2], x3^kr[3]
	// Reslicing four round-key words at a time lets the compiler drop the
	// per-round bounds checks (the len >= 4 guards cover ka[0..3], kb[0..3]).
	for ka, kb := kl[4:40], kr[4:40]; len(ka) >= 4 && len(kb) >= 4; ka, kb = ka[4:], kb[4:] {
		ta0 := ka[0] ^ aesTe[0][a0>>24] ^ aesTe[1][a1>>16&0xff] ^ aesTe[2][a2>>8&0xff] ^ aesTe[3][a3&0xff]
		tb0 := kb[0] ^ aesTe[0][b0>>24] ^ aesTe[1][b1>>16&0xff] ^ aesTe[2][b2>>8&0xff] ^ aesTe[3][b3&0xff]
		ta1 := ka[1] ^ aesTe[0][a1>>24] ^ aesTe[1][a2>>16&0xff] ^ aesTe[2][a3>>8&0xff] ^ aesTe[3][a0&0xff]
		tb1 := kb[1] ^ aesTe[0][b1>>24] ^ aesTe[1][b2>>16&0xff] ^ aesTe[2][b3>>8&0xff] ^ aesTe[3][b0&0xff]
		ta2 := ka[2] ^ aesTe[0][a2>>24] ^ aesTe[1][a3>>16&0xff] ^ aesTe[2][a0>>8&0xff] ^ aesTe[3][a1&0xff]
		tb2 := kb[2] ^ aesTe[0][b2>>24] ^ aesTe[1][b3>>16&0xff] ^ aesTe[2][b0>>8&0xff] ^ aesTe[3][b1&0xff]
		ta3 := ka[3] ^ aesTe[0][a3>>24] ^ aesTe[1][a0>>16&0xff] ^ aesTe[2][a1>>8&0xff] ^ aesTe[3][a2&0xff]
		tb3 := kb[3] ^ aesTe[0][b3>>24] ^ aesTe[1][b0>>16&0xff] ^ aesTe[2][b1>>8&0xff] ^ aesTe[3][b2&0xff]
		a0, a1, a2, a3 = ta0, ta1, ta2, ta3
		b0, b1, b2, b3 = tb0, tb1, tb2, tb3
	}
	// Final round: SubBytes+ShiftRows only, no MixColumns.
	putBeU32(left[0:4], x0^kl[40]^(uint32(aesSbox[a0>>24])<<24|uint32(aesSbox[a1>>16&0xff])<<16|
		uint32(aesSbox[a2>>8&0xff])<<8|uint32(aesSbox[a3&0xff])))
	putBeU32(left[4:8], x1^kl[41]^(uint32(aesSbox[a1>>24])<<24|uint32(aesSbox[a2>>16&0xff])<<16|
		uint32(aesSbox[a3>>8&0xff])<<8|uint32(aesSbox[a0&0xff])))
	putBeU32(left[8:12], x2^kl[42]^(uint32(aesSbox[a2>>24])<<24|uint32(aesSbox[a3>>16&0xff])<<16|
		uint32(aesSbox[a0>>8&0xff])<<8|uint32(aesSbox[a1&0xff])))
	putBeU32(left[12:16], x3^kl[43]^(uint32(aesSbox[a3>>24])<<24|uint32(aesSbox[a0>>16&0xff])<<16|
		uint32(aesSbox[a1>>8&0xff])<<8|uint32(aesSbox[a2&0xff])))
	putBeU32(right[0:4], x0^kr[40]^(uint32(aesSbox[b0>>24])<<24|uint32(aesSbox[b1>>16&0xff])<<16|
		uint32(aesSbox[b2>>8&0xff])<<8|uint32(aesSbox[b3&0xff])))
	putBeU32(right[4:8], x1^kr[41]^(uint32(aesSbox[b1>>24])<<24|uint32(aesSbox[b2>>16&0xff])<<16|
		uint32(aesSbox[b3>>8&0xff])<<8|uint32(aesSbox[b0&0xff])))
	putBeU32(right[8:12], x2^kr[42]^(uint32(aesSbox[b2>>24])<<24|uint32(aesSbox[b3>>16&0xff])<<16|
		uint32(aesSbox[b0>>8&0xff])<<8|uint32(aesSbox[b1&0xff])))
	putBeU32(right[12:16], x3^kr[43]^(uint32(aesSbox[b3>>24])<<24|uint32(aesSbox[b0>>16&0xff])<<16|
		uint32(aesSbox[b1>>8&0xff])<<8|uint32(aesSbox[b2&0xff])))
}

func beU32(b []byte) uint32 {
	return binary.BigEndian.Uint32(b)
}

func putBeU32(b []byte, v uint32) {
	binary.BigEndian.PutUint32(b, v)
}
