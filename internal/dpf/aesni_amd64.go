//go:build amd64 && !purego

package dpf

import "gpudpf/internal/cpufeat"

// Hardware AES for the GGM hot path. The kernels run AESPRG's G for four
// (AES-NI) or sixteen (AVX-512 + VAES) nodes per iteration: σ, twenty AES
// rounds under the two fixed schedules in aesFixedRK, the feed-forward,
// and for the step and leaf kernels the frontier correction and §3.1
// conversion, all in vector registers. Output is bit-identical to G built
// from crypto/aes (TestAESKernelTiersMatchStdlib pins every tier;
// TestAESKernelsMatchStdlib the dispatch and the pure-Go fallback).

// aesFixedRK is aesFixed in the kernels' layout: round key r of π_L at
// aesFixedRK[0][r], of π_R at aesFixedRK[1][r], in AES byte order and
// stored four times over, so a 16-wide kernel takes one as a ZMM operand.
// The asm reads it by symbol.
var aesFixedRK = func() (rk [2][11][4]Seed) {
	for k := range rk {
		for r := range rk[k] {
			for w := 0; w < 4; w++ {
				putBeU32(rk[k][r][0][4*w:], aesFixed[k][4*r+w])
			}
			rk[k][r][1], rk[k][r][2], rk[k][r][3] = rk[k][r][0], rk[k][r][0], rk[k][r][0]
		}
	}
	return
}()

// aesniExpand4 expands 4·blocks nodes: out[2i], out[2i+1] = G(seeds[i]).
// Needs AES-NI. Implemented in aesni_amd64.s.
//
//go:noescape
func aesniExpand4(out, seeds *Seed, blocks int)

// vaesExpand16 is aesniExpand4 on ZMM registers, 16·blocks nodes. Needs
// AVX-512 F+BW and VAES. Implemented in aesni_amd64.s.
//
//go:noescape
func vaesExpand16(out, seeds *Seed, blocks int)

// aesniStep4 and vaesStep16 are the expand kernels with the inner-level
// frontier step finished in registers: each child's control bit is peeled
// into nextT (XORed with cw's bit under the parent's), the child becomes
// (child &^ 1) ^ cw.S & -ts[i], and both are stored once, in leaf order.
// ts and cw's bits must be 0 or 1. Implemented in aesni_amd64.s.
//
//go:noescape
func aesniStep4(next, seeds *Seed, nextT, ts *uint8, cw *CW, blocks int)

//go:noescape
func vaesStep16(next, seeds *Seed, nextT, ts *uint8, cw *CW, blocks int)

// aesLeafConsts is what the leaf kernels need of a four-lane-group key
// and its last correction word, one 16-byte vector each: the final
// correction, the party's negation mask, cw.TL / cw.TR as all-ones or
// zero, and cw.S through the leaf conversion (leafWords). The conversion
// is linear, so a kernel converts the raw child and XORs s in under the
// parent's mask; the raw child's control bit drops out on the way.
type aesLeafConsts struct {
	final, neg, tl, tr, s [4]uint32
}

// aesniLeaf4 and vaesLeaf16 are the step kernels for the terminal level of
// a key with GroupSize() == 4: the corrected children never reach memory,
// each is converted (leafWords) and becomes its four finished shares
// ((word + final & -t) ^ neg) - neg in dst, eight uint32 per parent.
// Implemented in aesni_amd64.s.
//
//go:noescape
func aesniLeaf4(dst *uint32, seeds *Seed, ts *uint8, lc *aesLeafConsts, blocks int)

//go:noescape
func vaesLeaf16(dst *uint32, seeds *Seed, ts *uint8, lc *aesLeafConsts, blocks int)

// aesniOK gates the hardware path; the pure-Go T-table implementation is
// the fallback. vaesOK additionally selects the 16-wide tier for the bulk
// of a frontier.
var (
	aesniOK = cpufeat.AESNI
	vaesOK  = aesniOK && cpufeat.AVX512BW && cpufeat.VAES
)

// AESKernel names the implementation the AES-128 PRG's node expansion
// runs on this host: "vaes16" (AVX-512+VAES, sixteen nodes per kernel
// iteration), "aesni4" (AES-NI, four) or "purego" (T-tables).
// pirserver logs it at start-up, so a host that silently narrowed to a
// slower kernel is visible without a debugger.
func AESKernel() string {
	switch {
	case vaesOK:
		return "vaes16"
	case aesniOK:
		return "aesni4"
	}
	return "purego"
}

// aesniExpandNodes writes the raw children of every seed into out
// (len 2·len(seeds), leaf order) with the widest kernel the CPU has.
func aesniExpandNodes(out, seeds []Seed) {
	aesniExpandTier(out, seeds, vaesOK)
}

// aesniExpandTier is aesniExpandNodes with the tier explicit (the kernel
// tests pin each one): whole blocks of 16 go through the VAES kernel when
// wide, whole blocks of 4 through the AES-NI kernel, and a 1–3-node tail
// through the same AES-NI kernel on a padded stack block.
func aesniExpandTier(out, seeds []Seed, wide bool) {
	n := len(seeds)
	out = out[:2*n]
	i := 0
	if wide && n >= 16 {
		vaesExpand16(&out[0], &seeds[0], n/16)
		i = n &^ 15
	}
	if n-i >= 4 {
		aesniExpand4(&out[2*i], &seeds[i], (n-i)/4)
		i = n &^ 3
	}
	if i < n {
		var in [4]Seed
		var kids [8]Seed
		copy(in[:], seeds[i:])
		aesniExpand4(&kids[0], &in[0], 1)
		copy(out[2*i:], kids[:])
	}
}

// aesniStepNodes is stepBothBatch on the widest kernel the CPU has.
func aesniStepNodes(next []Seed, nextT []uint8, seeds []Seed, ts []uint8, cw *CW) {
	aesniStepTier(next, nextT, seeds, ts, cw, vaesOK)
}

// aesniStepTier splits a frontier over the step kernels the way
// aesniExpandTier does over the expand kernels.
func aesniStepTier(next []Seed, nextT []uint8, seeds []Seed, ts []uint8, cw *CW, wide bool) {
	n := len(seeds)
	next, nextT, ts = next[:2*n], nextT[:2*n], ts[:n]
	i := 0
	if wide && n >= 16 {
		vaesStep16(&next[0], &seeds[0], &nextT[0], &ts[0], cw, n/16)
		i = n &^ 15
	}
	if n-i >= 4 {
		aesniStep4(&next[2*i], &seeds[i], &nextT[2*i], &ts[i], cw, (n-i)/4)
		i = n &^ 3
	}
	if i < n {
		var in [4]Seed
		var inT [4]uint8
		var kids [8]Seed
		var kidT [8]uint8
		copy(in[:], seeds[i:])
		copy(inT[:], ts[i:])
		aesniStep4(&kids[0], &in[0], &kidT[0], &inT[0], cw, 1)
		copy(next[2*i:], kids[:])
		copy(nextT[2*i:], kidT[:])
	}
}

// aesniLeafNodes is stepLeafBatch for a key with GroupSize() == 4 on the
// widest kernel the CPU has.
func aesniLeafNodes(k *Key, seeds []Seed, ts []uint8, cw *CW, dst []uint32) {
	aesniLeafTier(k, seeds, ts, cw, dst, vaesOK)
}

// aesniLeafTier is aesniStepTier for the leaf kernels.
func aesniLeafTier(k *Key, seeds []Seed, ts []uint8, cw *CW, dst []uint32, wide bool) {
	mask := func(b uint8) [4]uint32 { m := -uint32(b); return [4]uint32{m, m, m, m} }
	lc := aesLeafConsts{final: [4]uint32(k.Final), neg: mask(k.Party), tl: mask(cw.TL), tr: mask(cw.TR), s: leafWords(&cw.S)}
	n := len(seeds)
	dst, ts = dst[:8*n], ts[:n]
	i := 0
	if wide && n >= 16 {
		vaesLeaf16(&dst[0], &seeds[0], &ts[0], &lc, n/16)
		i = n &^ 15
	}
	if n-i >= 4 {
		aesniLeaf4(&dst[8*i], &seeds[i], &ts[i], &lc, (n-i)/4)
		i = n &^ 3
	}
	if i < n {
		var in [4]Seed
		var inT [4]uint8
		var out [32]uint32
		copy(in[:], seeds[i:])
		copy(inT[:], ts[i:])
		aesniLeaf4(&out[0], &in[0], &inT[0], &lc, 1)
		copy(dst[8*i:], out[:])
	}
}
