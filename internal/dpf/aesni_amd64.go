//go:build amd64 && !purego

package dpf

import "gpudpf/internal/cpufeat"

// Hardware AES for the GGM hot path. The kernels run the whole per-node
// job — AES-128 key schedule from the node seed plus the two child-block
// encryptions E_seed(0), E_seed(1) — inside vector registers, so a node
// costs neither a heap allocation nor a round-key store/reload, and the
// GGM rekey-per-node cost the paper singles out (§3.2.6) is ~20 cycles on
// the AES-NI tier instead of the ~100 an AESKEYGENASSIST schedule is bound
// to. Output is bit-identical to crypto/aes (TestAESKernelTiersMatchStdlib
// pins every tier; TestAESKernelsMatchStdlib the dispatch and the pure-Go
// fallback).

// aesniExpand4 expands 4·blocks nodes: out[2i], out[2i+1] = E_seeds[i](0),
// E_seeds[i](1). Needs AES-NI + SSSE3. Implemented in aesni_amd64.s.
//
//go:noescape
func aesniExpand4(out, seeds *Seed, blocks int)

// vaesExpand16 is aesniExpand4 on ZMM registers, 16·blocks nodes. Needs
// AVX-512 F+BW and VAES. Implemented in aesni_amd64.s.
//
//go:noescape
func vaesExpand16(out, seeds *Seed, blocks int)

// aesniOK gates the hardware path; the pure-Go T-table implementation is
// the fallback. vaesOK additionally selects the 16-wide tier for the bulk
// of a frontier.
var (
	aesniOK = cpufeat.AESNI && cpufeat.SSSE3
	vaesOK  = aesniOK && cpufeat.AVX512BW && cpufeat.VAES
)

// AESKernel names the implementation the AES-128 PRG's node expansion
// runs on this host: "vaes16" (AVX-512+VAES, sixteen nodes per kernel
// iteration), "aesni4" (AES-NI+SSSE3, four) or "purego" (T-tables).
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
