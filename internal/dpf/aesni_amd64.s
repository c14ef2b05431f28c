//go:build amd64 && !purego

#include "textflag.h"

// GGM node expansion with AESPRG's fixed-key hash: for every seed s,
// x = σ(s) = (s_hi ^ s_lo)‖s_hi and the children are π_L(x) ^ x and
// π_R(x) ^ x, AES-128 under the two fixed keys whose round keys
// ·aesFixedRK holds (expanded once at init; see aes.go). Children are
// written in leaf order: out[2i] = left, out[2i+1] = right.
//
// A seed's low qword is bytes 0-7, so σ is a qword swap with the old low
// qword XORed into the new high one. A node costs twenty AES rounds and
// no key schedule: both schedules are loop-invariant, one 16-byte round
// key per (key, round), stored four times over so the 16-wide kernels can
// take a whole ZMM operand from memory.
//
// Each tier has three entry points over the same rounds: expand stores the
// raw children; step finishes the inner-level frontier step before the
// store (control bits peeled and corrected, child ^= cw.S & -t_parent);
// leaf goes on to convert each corrected child of a four-lane terminal
// group into finished output shares. The Go pass that used to re-read
// every stored child to do this cost more than the AES itself.

// ·aesFixedRK offsets: round r of π_L, of π_R.
#define RKL(r) (64*(r))
#define RKR(r) (704+64*(r))

// Constants, one 16-byte block each (the ZMM kernels broadcast a block to
// their four lanes):
//   +0   one: a 1 in the control bit (bit 0 of byte 0)
//   +16  clr: every bit but the control bit
DATA aesk<>+0(SB)/8, $1
DATA aesk<>+8(SB)/8, $0
DATA aesk<>+16(SB)/8, $0xfffffffffffffffe
DATA aesk<>+24(SB)/8, $0xffffffffffffffff
GLOBL aesk<>(SB), RODATA|NOPTR, $32

#define ONE  0
#define CLR  16

// func aesniExpand4(out, seeds *Seed, blocks int)
//
// Four nodes per loop iteration on AES-NI: X0-X3 hold σ of the four
// seeds, X4-X11 the eight cipher states (node n's children in X(4+2n),
// X(5+2n)), X12/X13 the round's π_L/π_R key, loaded from memory once per
// round, X14/X15 scratch. Eight independent chains keep the AES unit busy.
#define SIGMA4(off, x) \
	MOVOU  off(SI), X14 \
	PSHUFD $0xee, X14, x \
	PSLLDQ $8, X14       \
	PXOR   X14, x

#define WHITEN4(x, l, r) \
	MOVO x, l   \
	PXOR X12, l \
	MOVO x, r   \
	PXOR X13, r

// LOAD4 loads four seeds as σ and whitens both children's plaintext with
// round key 0.
#define LOAD4 \
	SIGMA4(0, X0)  \
	SIGMA4(16, X1) \
	SIGMA4(32, X2) \
	SIGMA4(48, X3) \
	MOVOU ·aesFixedRK+RKL(0)(SB), X12 \
	MOVOU ·aesFixedRK+RKR(0)(SB), X13 \
	WHITEN4(X0, X4, X5)  \
	WHITEN4(X1, X6, X7)  \
	WHITEN4(X2, X8, X9)  \
	WHITEN4(X3, X10, X11)

#define ROUND4(r, enc) \
	MOVOU ·aesFixedRK+RKL(r)(SB), X12 \
	MOVOU ·aesFixedRK+RKR(r)(SB), X13 \
	enc X12, X4  \
	enc X13, X5  \
	enc X12, X6  \
	enc X13, X7  \
	enc X12, X8  \
	enc X13, X9  \
	enc X12, X10 \
	enc X13, X11

// ROUNDS4 runs rounds 1-10 and the feed-forward (child ^= σ); X0-X3 are
// dead afterwards.
#define ROUNDS4 \
	ROUND4(1, AESENC) \
	ROUND4(2, AESENC) \
	ROUND4(3, AESENC) \
	ROUND4(4, AESENC) \
	ROUND4(5, AESENC) \
	ROUND4(6, AESENC) \
	ROUND4(7, AESENC) \
	ROUND4(8, AESENC) \
	ROUND4(9, AESENC) \
	ROUND4(10, AESENCLAST) \
	PXOR X0, X4  \
	PXOR X0, X5  \
	PXOR X1, X6  \
	PXOR X1, X7  \
	PXOR X2, X8  \
	PXOR X2, X9  \
	PXOR X3, X10 \
	PXOR X3, X11

// STORE4 writes the eight children (or finished leaf groups) in leaf order.
#define STORE4 \
	MOVOU X4, 0(DI)   \
	MOVOU X5, 16(DI)  \
	MOVOU X6, 32(DI)  \
	MOVOU X7, 48(DI)  \
	MOVOU X8, 64(DI)  \
	MOVOU X9, 80(DI)  \
	MOVOU X10, 96(DI) \
	MOVOU X11, 112(DI)

// PARENTS4 turns the block's four parent control bytes at (DX) into X1 =
// one all-ones / all-zero dword per parent; X0 is left holding each byte
// four times over.
#define PARENTS4 \
	MOVL (DX), X0     \
	PUNPCKLBW X0, X0  \
	PUNPCKLWL X0, X0  \
	PXOR  X1, X1      \
	PSUBB X0, X1

TEXT ·aesniExpand4(SB), NOSPLIT, $0-24
	MOVQ out+0(FP), DI
	MOVQ seeds+8(FP), SI
	MOVQ blocks+16(FP), CX
	TESTQ CX, CX
	JLE  done4

loop4:
	LOAD4
	ROUNDS4
	STORE4
	ADDQ $64, SI
	ADDQ $128, DI
	DECQ CX
	JNZ  loop4

done4:
	RET

// func aesniStep4(next, seeds *Seed, nextT, ts *uint8, cw *CW, blocks int)
//
// aesniExpand4 with the frontier step finished before the store: each raw
// child's control bit is peeled into nextT (t = bit0 ^ cw.T{L,R} & t_parent)
// and the child becomes (child &^ 1) ^ cw.S & -t_parent. After the rounds
// X1 holds the parent masks, X3 cw.S, X12 clr, X0/X2/X13-X15 are scratch;
// AX carries [TL,TR] in each of its four words, R10 a 1 in each byte.
#define CORR4(sel, l, r) \
	PSHUFD $sel, X1, X13 \
	PAND  X3, X13  \
	PAND  X12, l   \
	PXOR  X13, l   \
	PAND  X12, r   \
	PXOR  X13, r

TEXT ·aesniStep4(SB), NOSPLIT, $0-48
	MOVQ next+0(FP), DI
	MOVQ seeds+8(FP), SI
	MOVQ nextT+16(FP), BX
	MOVQ ts+24(FP), DX
	MOVQ cw+32(FP), R8
	MOVQ blocks+40(FP), CX
	TESTQ CX, CX
	JLE  donestep4
	MOVBQZX 16(R8), AX
	MOVBQZX 17(R8), R9
	SHLQ $8, R9
	ORQ  R9, AX
	MOVQ $0x0001000100010001, R9
	IMULQ R9, AX
	MOVQ $0x0101010101010101, R10

loopstep4:
	LOAD4
	ROUNDS4
	// Control bits: byte 0 of L0 R0 L1 R1 ... gathered into one qword,
	// masked to bit 0, XORed with cw's bits under the parents' own.
	MOVO  X4, X13
	PUNPCKLBW X5, X13
	MOVO  X6, X14
	PUNPCKLBW X7, X14
	PUNPCKLWL X14, X13
	MOVO  X8, X14
	PUNPCKLBW X9, X14
	MOVO  X10, X15
	PUNPCKLBW X11, X15
	PUNPCKLWL X15, X14
	PUNPCKLLQ X14, X13
	MOVQ  R10, X14
	PAND  X14, X13
	MOVL  (DX), X2
	PUNPCKLBW X2, X2         // t0 t0 t1 t1 t2 t2 t3 t3
	MOVQ  AX, X14
	PAND  X2, X14
	PXOR  X14, X13
	MOVQ  X13, (BX)
	// Seeds.
	PARENTS4
	MOVOU (R8), X3
	MOVOU aesk<>+CLR(SB), X12
	CORR4(0x00, X4, X5)
	CORR4(0x55, X6, X7)
	CORR4(0xaa, X8, X9)
	CORR4(0xff, X10, X11)
	STORE4
	ADDQ $64, SI
	ADDQ $128, DI
	ADDQ $4, DX
	ADDQ $8, BX
	DECQ CX
	JNZ  loopstep4

donestep4:
	RET

// func aesniLeaf4(dst *uint32, seeds *Seed, ts *uint8, lc *aesLeafConsts, blocks int)
//
// The terminal step for four-lane groups: each raw child is corrected,
// child ^ lc.s & -t_parent, and converted (HIDE4), then its four dwords
// become finished shares, ((word + Final & -t_child) ^ neg) - neg, stored
// where the child seed would have gone. lc holds, one 16-byte vector
// each: Final, neg, all-ones or zero for cw.TL and cw.TR, and the
// converted cw.S. X0 holds Final, X1 the parent masks, X3 the converted
// cw.S, X12 one; X2/X13-X15 are scratch.
//
// HIDE4 is the leaf conversion on one child register: word 0's low bit is
// XORed with the parity of all four words' low bits, which leaves it the
// XOR of words 1-3's. The converted cw.S has even parity, so correcting
// first changes neither the parity nor the result.
#define HIDE4(c) \
	PSHUFD $0x4e, c, X2   \
	PXOR   c, X2          \
	PSHUFD $0xb1, X2, X13 \
	PXOR   X13, X2        \
	PAND   X12, X2        \
	PXOR   X2, c

#define LEAF4(sel, l, r) \
	PSHUFD $sel, X1, X13  \
	PSHUFD $0, l, X14     \
	PSHUFD $0, r, X15     \
	MOVOU 32(R9), X2      \
	PAND  X13, X2         \
	PXOR  X2, X14         \
	MOVOU 48(R9), X2      \
	PAND  X13, X2         \
	PXOR  X2, X15         \
	PSLLL $31, X14        \
	PSRAL $31, X14        \
	PAND  X0, X14         \
	PSLLL $31, X15        \
	PSRAL $31, X15        \
	PAND  X0, X15         \
	PAND  X3, X13         \
	PXOR  X13, l          \
	PXOR  X13, r          \
	HIDE4(l)              \
	PADDL X14, l          \
	HIDE4(r)              \
	PADDL X15, r          \
	MOVOU 16(R9), X2      \
	PXOR  X2, l           \
	PSUBL X2, l           \
	PXOR  X2, r           \
	PSUBL X2, r

TEXT ·aesniLeaf4(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ seeds+8(FP), SI
	MOVQ ts+16(FP), DX
	MOVQ lc+24(FP), R9
	MOVQ blocks+32(FP), CX
	TESTQ CX, CX
	JLE  doneleaf4

loopleaf4:
	LOAD4
	ROUNDS4
	PARENTS4
	MOVOU (R9), X0
	MOVOU 64(R9), X3
	MOVOU aesk<>+ONE(SB), X12
	LEAF4(0x00, X4, X5)
	LEAF4(0x55, X6, X7)
	LEAF4(0xaa, X8, X9)
	LEAF4(0xff, X10, X11)
	STORE4
	ADDQ $64, SI
	ADDQ $128, DI
	ADDQ $4, DX
	DECQ CX
	JNZ  loopleaf4

doneleaf4:
	RET

// func vaesExpand16(out, seeds *Seed, blocks int)
//
// Sixteen nodes per loop iteration on AVX-512 (F+BW) + VAES: the same
// rounds with four nodes per ZMM register. Z0-Z3 hold σ of nodes 0-3,
// 4-7, 8-11, 12-15; Z4-Z11 the cipher states, Z(4+2q) the left children
// of quad q and Z(5+2q) the right; Z19-Z29 π_L's eleven round keys. π_R's
// do not fit beside them, so each of its rounds is a memory operand (one
// load per four nodes, off the AES port). Z13 is scratch, Z16/Z17 the
// output permutations, Z18 one, K5 the odd (high) qwords for σ.
#define SIGMA16(off, x) \
	VPSHUFD $0x4e, off(SI), x \
	VPXORQ  off(SI), x, K5, x

#define ROUND16(kl, r, enc) \
	enc kl, Z4, Z4   \
	enc ·aesFixedRK+RKR(r)(SB), Z5, Z5 \
	enc kl, Z6, Z6   \
	enc ·aesFixedRK+RKR(r)(SB), Z7, Z7 \
	enc kl, Z8, Z8   \
	enc ·aesFixedRK+RKR(r)(SB), Z9, Z9 \
	enc kl, Z10, Z10 \
	enc ·aesFixedRK+RKR(r)(SB), Z11, Z11

// STORE16 writes quad q's eight children in leaf order from its left
// (L0 L1 L2 L3) and right (R0 R1 R2 R3) state registers: L0 R0 L1 R1,
// then L2 R2 L3 R3. Both registers are dead afterwards.
#define STORE16(l, r, off) \
	VMOVDQA64 l, Z13      \
	VPERMT2Q  r, Z16, Z13 \
	VPERMT2Q  r, Z17, l   \
	VMOVDQU64 Z13, off(DI) \
	VMOVDQU64 l, off+64(DI)

// VPERMT2Q qword indices into (left, right): 0-7 left, 8-15 right.
DATA aesperm<>+0(SB)/8, $0
DATA aesperm<>+8(SB)/8, $1
DATA aesperm<>+16(SB)/8, $8
DATA aesperm<>+24(SB)/8, $9
DATA aesperm<>+32(SB)/8, $2
DATA aesperm<>+40(SB)/8, $3
DATA aesperm<>+48(SB)/8, $10
DATA aesperm<>+56(SB)/8, $11
DATA aesperm<>+64(SB)/8, $4
DATA aesperm<>+72(SB)/8, $5
DATA aesperm<>+80(SB)/8, $12
DATA aesperm<>+88(SB)/8, $13
DATA aesperm<>+96(SB)/8, $6
DATA aesperm<>+104(SB)/8, $7
DATA aesperm<>+112(SB)/8, $14
DATA aesperm<>+120(SB)/8, $15
GLOBL aesperm<>(SB), RODATA|NOPTR, $128

// Fused-step constants. aesmidx: VPERMD indices that broadcast parent
// 4q+i's dword to lane i, one 64-byte vector per quad q. aestperm: the
// VPERMW indices that put the control-bit words gathered per lane (word q
// of lane i = parent 4q+i) into leaf order. aesone: a 1 in every byte,
// then a 1 in the dword, for embedded-broadcast operands.
#define MIDX(off, v) \
	DATA aesmidx<>+off+0(SB)/8, $v \
	DATA aesmidx<>+off+8(SB)/8, $v
MIDX(0, 0x0000000000000000)
MIDX(16, 0x0000000100000001)
MIDX(32, 0x0000000200000002)
MIDX(48, 0x0000000300000003)
MIDX(64, 0x0000000400000004)
MIDX(80, 0x0000000500000005)
MIDX(96, 0x0000000600000006)
MIDX(112, 0x0000000700000007)
MIDX(128, 0x0000000800000008)
MIDX(144, 0x0000000900000009)
MIDX(160, 0x0000000a0000000a)
MIDX(176, 0x0000000b0000000b)
MIDX(192, 0x0000000c0000000c)
MIDX(208, 0x0000000d0000000d)
MIDX(224, 0x0000000e0000000e)
MIDX(240, 0x0000000f0000000f)
GLOBL aesmidx<>(SB), RODATA|NOPTR, $256

DATA aestperm<>+0(SB)/8, $0x0018001000080000
DATA aestperm<>+8(SB)/8, $0x0019001100090001
DATA aestperm<>+16(SB)/8, $0x001a0012000a0002
DATA aestperm<>+24(SB)/8, $0x001b0013000b0003
DATA aestperm<>+32(SB)/8, $0
DATA aestperm<>+40(SB)/8, $0
DATA aestperm<>+48(SB)/8, $0
DATA aestperm<>+56(SB)/8, $0
GLOBL aestperm<>(SB), RODATA|NOPTR, $64

DATA aesone<>+0(SB)/4, $0x01010101
DATA aesone<>+4(SB)/4, $1
GLOBL aesone<>(SB), RODATA|NOPTR, $8

// CONST16 loads the loop-invariant registers every 16-wide kernel shares.
// It clobbers AX.
#define CONST16 \
	MOVL $0xaa, AX \
	KMOVW AX, K5   \
	VBROADCASTI32X4 aesk<>+ONE(SB), Z18 \
	VMOVDQU64 aesperm<>+0(SB), Z16  \
	VMOVDQU64 aesperm<>+64(SB), Z17 \
	VMOVDQU64 ·aesFixedRK+RKL(0)(SB), Z19 \
	VMOVDQU64 ·aesFixedRK+RKL(1)(SB), Z20 \
	VMOVDQU64 ·aesFixedRK+RKL(2)(SB), Z21 \
	VMOVDQU64 ·aesFixedRK+RKL(3)(SB), Z22 \
	VMOVDQU64 ·aesFixedRK+RKL(4)(SB), Z23 \
	VMOVDQU64 ·aesFixedRK+RKL(5)(SB), Z24 \
	VMOVDQU64 ·aesFixedRK+RKL(6)(SB), Z25 \
	VMOVDQU64 ·aesFixedRK+RKL(7)(SB), Z26 \
	VMOVDQU64 ·aesFixedRK+RKL(8)(SB), Z27 \
	VMOVDQU64 ·aesFixedRK+RKL(9)(SB), Z28 \
	VMOVDQU64 ·aesFixedRK+RKL(10)(SB), Z29

// LOAD16 loads sixteen seeds as σ and whitens both children's plaintext
// with round key 0.
#define LOAD16 \
	SIGMA16(0, Z0)   \
	SIGMA16(64, Z1)  \
	SIGMA16(128, Z2) \
	SIGMA16(192, Z3) \
	VPXORD Z19, Z0, Z4 \
	VPXORD ·aesFixedRK+RKR(0)(SB), Z0, Z5 \
	VPXORD Z19, Z1, Z6 \
	VPXORD ·aesFixedRK+RKR(0)(SB), Z1, Z7 \
	VPXORD Z19, Z2, Z8 \
	VPXORD ·aesFixedRK+RKR(0)(SB), Z2, Z9 \
	VPXORD Z19, Z3, Z10 \
	VPXORD ·aesFixedRK+RKR(0)(SB), Z3, Z11

// ROUNDS16 runs rounds 1-10 and the feed-forward (child ^= σ); Z0-Z3 are
// dead afterwards.
#define ROUNDS16 \
	ROUND16(Z20, 1, VAESENC) \
	ROUND16(Z21, 2, VAESENC) \
	ROUND16(Z22, 3, VAESENC) \
	ROUND16(Z23, 4, VAESENC) \
	ROUND16(Z24, 5, VAESENC) \
	ROUND16(Z25, 6, VAESENC) \
	ROUND16(Z26, 7, VAESENC) \
	ROUND16(Z27, 8, VAESENC) \
	ROUND16(Z28, 9, VAESENC) \
	ROUND16(Z29, 10, VAESENCLAST) \
	VPXORD Z0, Z4, Z4   \
	VPXORD Z0, Z5, Z5   \
	VPXORD Z1, Z6, Z6   \
	VPXORD Z1, Z7, Z7   \
	VPXORD Z2, Z8, Z8   \
	VPXORD Z2, Z9, Z9   \
	VPXORD Z3, Z10, Z10 \
	VPXORD Z3, Z11, Z11

TEXT ·vaesExpand16(SB), NOSPLIT, $0-24
	MOVQ out+0(FP), DI
	MOVQ seeds+8(FP), SI
	MOVQ blocks+16(FP), CX
	TESTQ CX, CX
	JLE  done16
	CONST16

loop16:
	LOAD16
	ROUNDS16
	STORE16(Z4, Z5, 0)
	STORE16(Z6, Z7, 128)
	STORE16(Z8, Z9, 256)
	STORE16(Z10, Z11, 384)
	ADDQ $256, SI
	ADDQ $512, DI
	DECQ CX
	JNZ  loop16
	VZEROUPPER

done16:
	RET

// PARENTS16 turns the block's sixteen parent control bytes at (DX) into
// Z0 = one all-ones / all-zero dword per parent (Z30 is zero). MASK16
// spreads quad q's four dwords over their lanes: Z1 = the parents' masks,
// a full lane each, Z2 = cw.S under them (Z15 holds cw.S in every lane).
#define PARENTS16 \
	VPMOVZXBD (DX), Z0 \
	VPSUBD  Z0, Z30, Z0

#define MASK16(q) \
	VMOVDQU64 aesmidx<>+64*q(SB), Z1 \
	VPERMD  Z0, Z1, Z1 \
	VPANDD  Z15, Z1, Z2

// CORR16 is one child register's seed correction,
// (child &^ one) ^ cw.S & -t_parent, as a single three-input op.
#define CORR16(c) \
	VPTERNLOGD $0x9a, Z2, Z18, c

// func vaesStep16(next, seeds *Seed, nextT, ts *uint8, cw *CW, blocks int)
//
// vaesExpand16 with the frontier step finished before the store (see
// aesniStep4). Past the rounds Z0-Z3 and Z13/Z14 are scratch; Z12 holds
// [TL,TR] in every word, Z15 cw.S in every lane, Z30 zero, Z31 the
// control-bit permutation.
TEXT ·vaesStep16(SB), NOSPLIT, $0-48
	MOVQ next+0(FP), DI
	MOVQ seeds+8(FP), SI
	MOVQ nextT+16(FP), BX
	MOVQ ts+24(FP), DX
	MOVQ cw+32(FP), R8
	MOVQ blocks+40(FP), CX
	TESTQ CX, CX
	JLE  donestep16
	CONST16
	VBROADCASTI32X4 (R8), Z15
	MOVBLZX 16(R8), AX
	MOVBLZX 17(R8), R9
	SHLL $8, R9
	ORL  R9, AX
	VPBROADCASTW AX, Z12
	VPXORD Z30, Z30, Z30
	VMOVDQU64 aestperm<>(SB), Z31

loopstep16:
	LOAD16
	ROUNDS16
	// Control bits: byte 0 of every child, L beside R, gathered to one
	// qword per lane (word q = quad q), permuted into leaf order, masked
	// to bit 0 and XORed with cw's bits under the parents' own.
	VPUNPCKLBW Z5, Z4, Z0
	VPUNPCKLBW Z7, Z6, Z1
	VPUNPCKLBW Z9, Z8, Z2
	VPUNPCKLBW Z11, Z10, Z3
	VPUNPCKLWD Z1, Z0, Z0
	VPUNPCKLWD Z3, Z2, Z2
	VPUNPCKLDQ Z2, Z0, Z0
	VPERMW  Z0, Z31, Z0
	VMOVDQU (DX), X1
	VPMOVZXBW Y1, Z1
	VPSLLW  $8, Z1, Z2
	VPTERNLOGD $0xa8, Z12, Z2, Z1        // (t | t<<8) & [TL,TR]
	VPTERNLOGD.BCST $0x6c, aesone<>+0(SB), Z1, Z0 // (raw & 1) ^ that
	VMOVDQU Y0, (BX)
	// Seeds.
	PARENTS16
	MASK16(0)
	CORR16(Z4)
	CORR16(Z5)
	STORE16(Z4, Z5, 0)
	MASK16(1)
	CORR16(Z6)
	CORR16(Z7)
	STORE16(Z6, Z7, 128)
	MASK16(2)
	CORR16(Z8)
	CORR16(Z9)
	STORE16(Z8, Z9, 256)
	MASK16(3)
	CORR16(Z10)
	CORR16(Z11)
	STORE16(Z10, Z11, 384)
	ADDQ $256, SI
	ADDQ $512, DI
	ADDQ $16, DX
	ADDQ $32, BX
	DECQ CX
	JNZ  loopstep16
	VZEROUPPER

donestep16:
	RET

// LEAF16 finishes one child register: its control bit — raw bit 0 of the
// lane's first dword, XORed with the parent mask where cw's bit for this
// side is set (kt) — selects the lanes that take Final (Z12), and party 1
// (K1) negates. Between the two the child is corrected and converted in
// one three-input XOR: Z2 is the converted cw.S under the parent masks,
// and Z14 the conversion's flip, one (Z18) under the parity of each lane's
// four dwords (the XOR of the lane with its qword-rotated and then
// half-swapped self). The converted cw.S has even parity, so the raw
// child's parity is the corrected child's.
#define LEAF16(c, kt) \
	VPSHUFD $0, c, Z3     \
	VPXORD  Z1, Z3, kt, Z3 \
	VPTESTMD.BCST aesone<>+4(SB), Z3, K4 \
	VPROLQ  $32, c, Z3    \
	VPXORD  c, Z3, Z3     \
	VPSHUFD $0x4e, Z3, Z14 \
	VPTERNLOGD $0x28, Z18, Z3, Z14 \
	VPTERNLOGD $0x96, Z14, Z2, c   \
	VPADDD  Z12, c, K4, c \
	VPSUBD  c, Z30, K1, c

// func vaesLeaf16(dst *uint32, seeds *Seed, ts *uint8, lc *aesLeafConsts, blocks int)
//
// The terminal step for four-lane groups on ZMM (see aesniLeaf4). Z12
// holds Final in every lane, Z15 the converted cw.S; K1, K2, K3 are
// all-ones or empty for party 1, cw.TL, cw.TR.
TEXT ·vaesLeaf16(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ seeds+8(FP), SI
	MOVQ ts+16(FP), DX
	MOVQ lc+24(FP), R9
	MOVQ blocks+32(FP), CX
	TESTQ CX, CX
	JLE  doneleaf16
	CONST16
	VBROADCASTI32X4 64(R9), Z15
	VBROADCASTI32X4 (R9), Z12
	VPXORD Z30, Z30, Z30
	MOVL 16(R9), AX
	KMOVW AX, K1
	MOVL 32(R9), AX
	KMOVW AX, K2
	MOVL 48(R9), AX
	KMOVW AX, K3

loopleaf16:
	LOAD16
	ROUNDS16
	PARENTS16
	MASK16(0)
	LEAF16(Z4, K2)
	LEAF16(Z5, K3)
	STORE16(Z4, Z5, 0)
	MASK16(1)
	LEAF16(Z6, K2)
	LEAF16(Z7, K3)
	STORE16(Z6, Z7, 128)
	MASK16(2)
	LEAF16(Z8, K2)
	LEAF16(Z9, K3)
	STORE16(Z8, Z9, 256)
	MASK16(3)
	LEAF16(Z10, K2)
	LEAF16(Z11, K3)
	STORE16(Z10, Z11, 384)
	ADDQ $256, SI
	ADDQ $512, DI
	ADDQ $16, DX
	DECQ CX
	JNZ  loopleaf16
	VZEROUPPER

doneleaf16:
	RET
