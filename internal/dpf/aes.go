package dpf

import (
	"crypto/sha256"
	"encoding/binary"
)

// AESPRG implements the GGM PRG with fixed-key AES-128: the MMO^σ hash of
// Guo, Katz, Wang and Yu, "Efficient and Secure Multiparty Computation
// from Fixed-Key Block Ciphers" (IEEE S&P 2020), which is also the hash
// Google's open-source DPF library expands its tree with. Let π_L and π_R
// be AES-128 under two fixed public keys and σ(x_hi‖x_lo) = (x_hi ⊕
// x_lo)‖x_hi, with x_lo bytes 0-7 of the seed. Then
//
//	G(s) = (π_L(σ(s)) ⊕ σ(s), π_R(σ(s)) ⊕ σ(s))
//
// and each child's control bit is peeled from its bit 0. The keys are
// nothing-up-my-sleeve: π_L's is the first 16 bytes of
// SHA-256("gpudpf/aes128/left"), π_R's of SHA-256("gpudpf/aes128/right").
// Both schedules are expanded once, at init, so a node costs two
// encryptions and no key schedule.
//
// Security rests on AES as an ideal permutation, not on AES as a PRF
// keyed by the seed: for a linear orthomorphism σ, x ↦ π(σ(x)) ⊕ σ(x) is
// circular correlation robust in the random-permutation model (Guo et
// al.), so on a uniform seed the two halves, under independent π, are
// jointly pseudorandom — what a GGM PRG needs. The bound is
// multi-instance: an adversary who sees q evaluations, over every key and
// tree, loses log₂ q bits of the 128.
//
// The modeled cycle costs below are calibrated to the paper's tables and
// do not depend on which AES construction this host runs.
type AESPRG struct{}

// NewAESPRG returns the AES-128 PRG.
func NewAESPRG() *AESPRG { return &AESPRG{} }

// Name implements PRG.
func (*AESPRG) Name() string { return "aes128" }

// Construction implements PRG.
func (*AESPRG) Construction() uint32 { return ConstructionAES128 }

// aesFixed holds π_L's and π_R's key schedules, expanded once.
var aesFixed = func() (rk [2]aesRoundKeys) {
	for i, label := range [2]string{"gpudpf/aes128/left", "gpudpf/aes128/right"} {
		sum := sha256.Sum256([]byte(label))
		rk[i].expand((*Seed)(sum[:16]))
	}
	return
}()

// aesChunk is how many parents the two-pass steps expand per kernel call:
// 1 KiB of seeds in, 2 KiB of children out, so the children are still in
// L1 when the correction pass reads them back.
const aesChunk = 64

// aesExpandNodes writes every seed's raw children — control bits still in
// place — into out in leaf order: out[2i], out[2i+1] = G(seeds[i]).
// len(out) must be 2·len(seeds), and out must not overlap seeds. This is
// the one entry point every AES expansion goes through, and neither body
// touches the heap.
func aesExpandNodes(out, seeds []Seed) {
	if aesniOK {
		aesniExpandNodes(out, seeds)
		return
	}
	aesExpandNodesGo(out, seeds)
}

// aesExpandNodesGo is aesExpandNodes' portable body on the T-table AES.
func aesExpandNodesGo(out, seeds []Seed) {
	out = out[:2*len(seeds)]
	for i := range seeds {
		aesG(&aesFixed[0], &aesFixed[1], &out[2*i], &out[2*i+1], &seeds[i])
	}
}

// Expand implements PRG: the node rides one lane of the batch expansion —
// no cipher object, no allocation.
func (*AESPRG) Expand(s Seed) (left, right Seed, tL, tR uint8) {
	seed := [1]Seed{s}
	var kids [2]Seed
	aesExpandNodes(kids[:], seed[:])
	left, right = kids[0], kids[1]
	tL, tR = clearControlBits(&left, &right)
	return
}

// ExpandBatch implements PRG: the frontier goes through aesExpandNodes a
// chunk at a time and the interleaved children are dealt out to left and
// right with their control bits peeled — zero allocations.
func (*AESPRG) ExpandBatch(seeds []Seed, left, right []Seed, tL, tR []uint8) {
	var buf [2 * aesChunk]Seed
	for lo := 0; lo < len(seeds); lo += aesChunk {
		hi := min(lo+aesChunk, len(seeds))
		kids := buf[:2*(hi-lo)]
		aesExpandNodes(kids, seeds[lo:hi])
		for i := lo; i < hi; i++ {
			left[i], right[i] = kids[2*(i-lo)], kids[2*(i-lo)+1]
			tL[i], tR[i] = clearControlBits(&left[i], &right[i])
		}
	}
}

// stepBothBatch is the frontier advance StepBothBatch dispatches to for
// AES. With hardware AES the step kernels do all of it in registers —
// expand, peel the control bits, correct — and store next and nextT once.
// The portable body encrypts the children into next (interleaved leaf
// order) and corrects them in place, a chunk at a time; its correction
// pass is also the definition the kernel tests hold every asm tier to.
func (*AESPRG) stepBothBatch(seeds []Seed, ts []uint8, cw CW, next []Seed, nextT []uint8) {
	if aesniOK {
		aesniStepNodes(next, nextT, seeds, ts, &cw)
		return
	}
	for lo := 0; lo < len(seeds); lo += aesChunk {
		hi := min(lo+aesChunk, len(seeds))
		kids := next[2*lo : 2*hi]
		aesExpandNodes(kids, seeds[lo:hi])
		correctChildren(kids, nextT[2*lo:2*hi], ts[lo:hi], cw)
	}
}

// correctedChild is one raw child turned into a node state: the control
// bit is peeled from the low bit of the seed and, under the parent's mask
// m (all ones when its control bit is set, else zero), the correction
// word (s0, s1 and its bit ct) is XORed in. The parent bits of a real key
// are pseudorandom, so a branch on them mispredicts every other node;
// masking costs four ALU ops instead. -t is a valid mask because control
// bits are always 0 or 1 (UnmarshalBinary rejects anything else).
func correctedChild(c *Seed, s0, s1, m uint64, ct uint8) (w0, w1 uint64, t uint8) {
	w0 = binary.LittleEndian.Uint64(c[0:8])
	w1 = binary.LittleEndian.Uint64(c[8:16])
	t = uint8(w0)&1 ^ ct&uint8(m)
	return w0&^1 ^ s0&m, w1 ^ s1&m, t
}

// correctChildren corrects raw children in place (kids[2i], kids[2i+1]
// from the parent with control bit ts[i]) and writes their control bits.
func correctChildren(kids []Seed, kidT []uint8, ts []uint8, cw CW) {
	s0 := binary.LittleEndian.Uint64(cw.S[0:8])
	s1 := binary.LittleEndian.Uint64(cw.S[8:16])
	for i, t := range ts {
		m := -uint64(t)
		l, r := &kids[2*i], &kids[2*i+1]
		kt := kidT[2*i : 2*i+2]
		l0, l1, lt := correctedChild(l, s0, s1, m, cw.TL)
		r0, r1, rt := correctedChild(r, s0, s1, m, cw.TR)
		binary.LittleEndian.PutUint64(l[0:8], l0)
		binary.LittleEndian.PutUint64(l[8:16], l1)
		binary.LittleEndian.PutUint64(r[0:8], r0)
		binary.LittleEndian.PutUint64(r[8:16], r1)
		kt[0], kt[1] = lt, rt
	}
}

// stepLeafBatch is the fused final step StepLeafBatch dispatches to for
// AES. For the default four-lane terminal group the leaf kernels correct
// and convert in registers and store finished shares into dst — the
// tree's widest level costs one pass over its parents and one over dst.
// The portable body (and narrower groups) expands a chunk of parents into
// a stack buffer whose children are corrected and converted straight into
// the output lanes; either way the child seeds never touch a frontier or
// batch scratch buffer.
func (*AESPRG) stepLeafBatch(k *Key, seeds []Seed, ts []uint8, cw CW, dst []uint32) {
	gl := k.GroupSize()
	if aesniOK && gl == 4 {
		aesniLeafNodes(k, seeds, ts, &cw, dst)
		return
	}
	var buf [2 * aesChunk]Seed
	for lo := 0; lo < len(seeds); lo += aesChunk {
		hi := min(lo+aesChunk, len(seeds))
		kids := buf[:2*(hi-lo)]
		aesExpandNodes(kids, seeds[lo:hi])
		correctConvert(k, kids, ts[lo:hi], cw, dst[2*lo*gl:2*hi*gl])
	}
}

// correctConvert is correctChildren fused with the terminal conversion of
// a scalar key, branch-free for the same reason: each corrected child's
// converted seed words (hideLow, leafWords on halves) become its
// group's gl output lanes, plus the final correction under the mask of
// the child's own control bit, negated for party 1 ((v ^ neg) - neg is
// -v when neg is all ones, v when zero). It is the definition the leaf
// kernels are held to.
func correctConvert(k *Key, kids []Seed, ts []uint8, cw CW, dst []uint32) {
	s0 := binary.LittleEndian.Uint64(cw.S[0:8])
	s1 := binary.LittleEndian.Uint64(cw.S[8:16])
	neg := -uint32(k.Party)
	gl := k.GroupSize()
	if gl == 4 {
		// The default early-termination depth: a child is exactly four
		// lanes, so the lane loop unrolls into straight stores.
		f0, f1, f2, f3 := k.Final[0], k.Final[1], k.Final[2], k.Final[3]
		for i, t := range ts {
			m := -uint64(t)
			out := dst[8*i : 8*i+8]
			l0, l1, lt := correctedChild(&kids[2*i], s0, s1, m, cw.TL)
			r0, r1, rt := correctedChild(&kids[2*i+1], s0, s1, m, cw.TR)
			l0, r0 = hideLow(l0, l1), hideLow(r0, r1)
			lm, rm := -uint32(lt), -uint32(rt)
			out[0] = ((uint32(l0) + f0&lm) ^ neg) - neg
			out[1] = ((uint32(l0>>32) + f1&lm) ^ neg) - neg
			out[2] = ((uint32(l1) + f2&lm) ^ neg) - neg
			out[3] = ((uint32(l1>>32) + f3&lm) ^ neg) - neg
			out[4] = ((uint32(r0) + f0&rm) ^ neg) - neg
			out[5] = ((uint32(r0>>32) + f1&rm) ^ neg) - neg
			out[6] = ((uint32(r1) + f2&rm) ^ neg) - neg
			out[7] = ((uint32(r1>>32) + f3&rm) ^ neg) - neg
		}
		return
	}
	final := k.Final[:gl]
	for i, t := range ts {
		m := -uint64(t)
		for side, ct := range [2]uint8{cw.TL, cw.TR} {
			w0, w1, kt := correctedChild(&kids[2*i+side], s0, s1, m, ct)
			w0 = hideLow(w0, w1)
			words := [4]uint32{uint32(w0), uint32(w0 >> 32), uint32(w1), uint32(w1 >> 32)}
			fm := -uint32(kt)
			out := dst[(2*i+side)*gl:][:gl]
			for j, f := range final {
				out[j] = ((words[j] + f&fm) ^ neg) - neg
			}
		}
	}
}
