package dpf

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math/bits"
)

// The four other PRFs the paper's Table 5 compares, kept as test-only
// reference PRGs. The server computes aes128 alone (NewPRG refuses these
// names) and no binary links them; what they would cost on the paper's
// hardware is internal/model's business. Here they drive the generic,
// unfused path of StepBothBatch and StepLeafBatch that any PRG other than
// *AESPRG takes, and pin the key wire format — which
// carries no PRF name — against keys minted under other PRFs (the golden
// fixtures). SipHash and the HighwayHash-style body are not conservatively
// analysed PRFs.

// Construction IDs of the reference PRGs, as their served builds pinned
// them in the wire hello.
const (
	constructionChaCha20 uint32 = 0xc4a_0001
	constructionSipHash  uint32 = 0x519_0001
	constructionHighway  uint32 = 0x419_0001
	constructionSHA256   uint32 = 0x256_0001
)

// allPRGNames lists aes128 and the reference PRGs in the order Table 5
// reports them; the golden fixtures are generated in this order.
func allPRGNames() []string {
	return []string{"aes128", "sha256", "chacha20", "siphash", "highway"}
}

// testPRG is NewPRG over allPRGNames.
func testPRG(name string) (PRG, error) {
	switch name {
	case "aes128":
		return NewAESPRG(), nil
	case "chacha20":
		return NewChaChaPRG(), nil
	case "siphash":
		return NewSipPRG(), nil
	case "highway":
		return NewHighwayPRG(), nil
	case "sha256":
		return NewSHA256PRG(), nil
	}
	return nil, fmt.Errorf("dpf: no reference PRG %q", name)
}

// ChaChaPRG is the GGM PRG over the ChaCha20 block function (RFC 8439).
// The node seed forms the 256-bit key (repeated twice); child seeds are
// the first 32 bytes of the block-0 keystream.
type ChaChaPRG struct{}

func NewChaChaPRG() *ChaChaPRG          { return &ChaChaPRG{} }
func (*ChaChaPRG) Name() string         { return "chacha20" }
func (*ChaChaPRG) Construction() uint32 { return constructionChaCha20 }
func (*ChaChaPRG) Expand(s Seed) (left, right Seed, tL, tR uint8) {
	var out [64]byte
	chachaBlock(&s, 0, &out)
	copy(left[:], out[0:16])
	copy(right[:], out[16:32])
	tL, tR = clearControlBits(&left, &right)
	return
}

func (*ChaChaPRG) ExpandBatch(seeds []Seed, left, right []Seed, tL, tR []uint8) {
	var out [64]byte
	for i := range seeds {
		chachaBlock(&seeds[i], 0, &out)
		copy(left[i][:], out[0:16])
		copy(right[i][:], out[16:32])
		tL[i], tR[i] = clearControlBits(&left[i], &right[i])
	}
}

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
		quarter(&x[0], &x[4], &x[8], &x[12])
		quarter(&x[1], &x[5], &x[9], &x[13])
		quarter(&x[2], &x[6], &x[10], &x[14])
		quarter(&x[3], &x[7], &x[11], &x[15])
		quarter(&x[0], &x[5], &x[10], &x[15])
		quarter(&x[1], &x[6], &x[11], &x[12])
		quarter(&x[2], &x[7], &x[8], &x[13])
		quarter(&x[3], &x[4], &x[9], &x[14])
	}
	for i := 0; i < 16; i++ {
		binary.LittleEndian.PutUint32(out[i*4:], x[i]+init[i])
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

// SipPRG is the GGM PRG over SipHash-2-4 (Aumasson–Bernstein): the node
// seed is the 128-bit key and the four 64-bit child words are
// SipHash(key, 0..3).
type SipPRG struct{}

func NewSipPRG() *SipPRG             { return &SipPRG{} }
func (*SipPRG) Name() string         { return "siphash" }
func (*SipPRG) Construction() uint32 { return constructionSipHash }
func (*SipPRG) Expand(s Seed) (left, right Seed, tL, tR uint8) {
	sipChildren(&s, &left, &right)
	tL, tR = clearControlBits(&left, &right)
	return
}

func (*SipPRG) ExpandBatch(seeds []Seed, left, right []Seed, tL, tR []uint8) {
	for i := range seeds {
		sipChildren(&seeds[i], &left[i], &right[i])
		tL[i], tR[i] = clearControlBits(&left[i], &right[i])
	}
}

func sipChildren(s, left, right *Seed) {
	k0, k1 := leU64(s[0:8]), leU64(s[8:16])
	binary.LittleEndian.PutUint64(left[0:8], siphash24(k0, k1, 0))
	binary.LittleEndian.PutUint64(left[8:16], siphash24(k0, k1, 1))
	binary.LittleEndian.PutUint64(right[0:8], siphash24(k0, k1, 2))
	binary.LittleEndian.PutUint64(right[8:16], siphash24(k0, k1, 3))
}

// siphash24 computes SipHash-2-4 of an 8-byte little-endian message m under
// key (k0, k1).
func siphash24(k0, k1, m uint64) uint64 {
	v0 := k0 ^ 0x736f6d6570736575
	v1 := k1 ^ 0x646f72616e646f6d
	v2 := k0 ^ 0x6c7967656e657261
	v3 := k1 ^ 0x7465646279746573
	b := uint64(8) << 56 // length byte of the one 8-byte block
	v3 ^= m
	sipRound(&v0, &v1, &v2, &v3)
	sipRound(&v0, &v1, &v2, &v3)
	v0 ^= m
	v3 ^= b
	sipRound(&v0, &v1, &v2, &v3)
	sipRound(&v0, &v1, &v2, &v3)
	v0 ^= b
	v2 ^= 0xff
	for i := 0; i < 4; i++ {
		sipRound(&v0, &v1, &v2, &v3)
	}
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

func leU64(b []byte) uint64 { return binary.LittleEndian.Uint64(b) }

// HighwayPRG is a HighwayHash-style keyed permutation: a 1024-bit state
// updated with multiply-add and zipper-merge mixing. It is not the
// reference HighwayHash and claims no test-vector compatibility.
type HighwayPRG struct{}

func NewHighwayPRG() *HighwayPRG         { return &HighwayPRG{} }
func (*HighwayPRG) Name() string         { return "highway" }
func (*HighwayPRG) Construction() uint32 { return constructionHighway }
func (*HighwayPRG) Expand(s Seed) (left, right Seed, tL, tR uint8) {
	var st hwState
	var out [32]byte
	st.reset(&s)
	st.update(0)
	st.finalize(&out)
	copy(left[:], out[0:16])
	copy(right[:], out[16:32])
	tL, tR = clearControlBits(&left, &right)
	return
}

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

// hwState: v0, v1 are the mixing vectors, mul0, mul1 accumulate multiply
// results.
type hwState struct {
	v0, v1, mul0, mul1 [4]uint64
}

var hwInit0 = [4]uint64{0xdbe6d5d5fe4cce2f, 0xa4093822299f31d0, 0x13198a2e03707344, 0x243f6a8885a308d3}
var hwInit1 = [4]uint64{0x3bd39e10cb0ef593, 0xc0acf169b5f18a8c, 0xbe5466cf34e90c6c, 0x452821e638d01377}

func (h *hwState) reset(s *Seed) {
	k0, k1 := leU64(s[0:8]), leU64(s[8:16])
	key := [4]uint64{k0, k1, bits.RotateLeft64(k0, 32), bits.RotateLeft64(k1, 32)}
	for i := 0; i < 4; i++ {
		h.mul0[i] = hwInit0[i]
		h.mul1[i] = hwInit1[i]
		h.v0[i] = key[i] ^ hwInit0[i]
		h.v1[i] = bits.RotateLeft64(key[i], 17) ^ hwInit1[i]
	}
}

// update absorbs one 256-bit block derived from the counter, broadcast
// into the four lanes with distinct tweaks.
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
		// Cross-lane diffusion: every output lane depends on every key lane.
		for i := 0; i < 4; i++ {
			h.v0[i] += h.v1[(i+1)&3]
			h.mul0[i] ^= h.mul1[(i+3)&3]
		}
	}
}

// zipperMerge permutes the bytes of v so multiply carries diffuse across
// byte positions.
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
		v := h.v0[i] + h.v1[(i+1)&3] + h.mul0[(i+2)&3] + h.mul1[(i+3)&3]
		v ^= v >> 33
		v *= 0xff51afd7ed558ccd
		v ^= v >> 33
		v *= 0xc4ceb9fe1a85ec53
		v ^= v >> 33
		binary.LittleEndian.PutUint64(out[i*8:i*8+8], v)
	}
}

// SHA256PRG is the GGM PRG over HMAC-SHA-256 keyed by the node seed.
type SHA256PRG struct{}

func NewSHA256PRG() *SHA256PRG          { return &SHA256PRG{} }
func (*SHA256PRG) Name() string         { return "sha256" }
func (*SHA256PRG) Construction() uint32 { return constructionSHA256 }
func (*SHA256PRG) Expand(s Seed) (left, right Seed, tL, tR uint8) {
	mac := hmac.New(sha256.New, s[:])
	mac.Write([]byte{0})
	sum := mac.Sum(nil)
	copy(left[:], sum[0:16])
	copy(right[:], sum[16:32])
	tL, tR = clearControlBits(&left, &right)
	return
}

// ExpandBatch hoists one SHA-256 state, the key pads and the sum buffer
// out of the loop and applies H(opad‖H(ipad‖msg)) by hand.
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

// hmacSeedSum computes HMAC-SHA-256(seed, msg) into out (cap ≥ 32), the
// 16-byte key zero-padded to the 64-byte block per RFC 2104.
func hmacSeedSum(d hash.Hash, pad *[64]byte, s *Seed, msg, out []byte) []byte {
	for i := range pad {
		pad[i] = 0x36
	}
	for i := 0; i < 16; i++ {
		pad[i] ^= s[i]
	}
	d.Reset()
	d.Write(pad[:])
	d.Write(msg)
	inner := d.Sum(out[:0])
	for i := range pad {
		pad[i] ^= 0x36 ^ 0x5c
	}
	d.Reset()
	d.Write(pad[:])
	d.Write(inner)
	return d.Sum(inner[:0])
}
