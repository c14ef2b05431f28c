//go:build amd64 && !purego

#include "textflag.h"

// GGM node expansion: for every seed, run the AES-128 key schedule from
// the seed and encrypt the two child plaintexts (block of zeros; block
// with byte 0 = 1) under it, all in registers. Children are written in
// leaf order: out[2i] = AES_seed[i](0), out[2i+1] = AES_seed[i](1).
//
// The key schedule is the PSHUFB + AESENCLAST form (OpenSSL's and the
// Linux kernel's AES-128 key set-up), not AESKEYGENASSIST: that
// instruction is microcoded (~13 µops, one issue per ~12 cycles) and a
// node needs ten of them, which by itself is ~100 cycles per node however
// many schedules are interleaved. Here one round key costs single-µop
// instructions only:
//
//	t   = AESENCLAST(PSHUFB(key, rot), rcon)   rot = 0x0c0f0e0d in every column
//	key = key ^ key<<32; key ^= key<<64        prefix XOR of the four words
//	key = key ^ t
//
// PSHUFB broadcasts RotWord(w3) into all four columns; with four equal
// columns ShiftRows is the identity, so AESENCLAST leaves
// SubWord(RotWord(w3)) ^ rcon in every column — exactly what each word of
// the next round key is XORed with. The prefix XOR runs beside it on the
// shuffle ports.
//
// Each tier has three entry points over the same rounds: expand stores the
// raw children; step finishes the inner-level frontier step before the
// store (control bits peeled and corrected, child ^= cw.S & -t_parent);
// leaf goes on to convert each corrected child of a four-lane terminal
// group into finished output shares. The Go pass that used to re-read
// every stored child to do this cost more than the AES itself.

// Constants, one 16-byte block each (the ZMM kernel broadcasts a block to
// its four lanes):
//   +0   rot: the PSHUFB mask
//   +16  one: child plaintext 1 (byte 0 = 0x01)
//   +32  rcon[0..9], one dword per column
//   +192 clr: every bit but the control bit (bit 0 of byte 0)
DATA aesk<>+0(SB)/8, $0x0c0f0e0d0c0f0e0d
DATA aesk<>+8(SB)/8, $0x0c0f0e0d0c0f0e0d
DATA aesk<>+16(SB)/8, $1
DATA aesk<>+24(SB)/8, $0
#define RCON_ENTRY(off, v) \
	DATA aesk<>+off+0(SB)/8, $v \
	DATA aesk<>+off+8(SB)/8, $v
RCON_ENTRY(32, 0x0000000100000001)
RCON_ENTRY(48, 0x0000000200000002)
RCON_ENTRY(64, 0x0000000400000004)
RCON_ENTRY(80, 0x0000000800000008)
RCON_ENTRY(96, 0x0000001000000010)
RCON_ENTRY(112, 0x0000002000000020)
RCON_ENTRY(128, 0x0000004000000040)
RCON_ENTRY(144, 0x0000008000000080)
RCON_ENTRY(160, 0x0000001b0000001b)
RCON_ENTRY(176, 0x0000003600000036)
DATA aesk<>+192(SB)/8, $0xfffffffffffffffe
DATA aesk<>+200(SB)/8, $0xffffffffffffffff
GLOBL aesk<>(SB), RODATA|NOPTR, $208

#define ROT  0
#define ONE  16
#define RCON(r) (32+16*(r))
#define CLR  192

// func aesniExpand4(out, seeds *Seed, blocks int)
//
// Four nodes per loop iteration on AES-NI + SSSE3. One schedule is a
// serial chain (PSHUFB 1 + AESENCLAST 3 + PXOR 1 cycles per round); four
// independent ones interleaved keep the AES and shuffle ports full, and
// four is what the sixteen XMM registers hold: X0-X3 the four round keys,
// X4-X11 the eight cipher states (node n's children in X(4+2n), X(5+2n)),
// X12 rot, X13 t, X14 shift temp, X15 the round's rcon.
#define KEY4(k, s0, s1, enc) \
	MOVO   k, X13   \
	PSHUFB X12, X13 \
	AESENCLAST X15, X13 \
	MOVO   k, X14   \
	PSLLDQ $4, X14  \
	PXOR   X14, k   \
	MOVO   k, X14   \
	PSLLDQ $8, X14  \
	PXOR   X14, k   \
	PXOR   X13, k   \
	enc    k, s0    \
	enc    k, s1

#define ROUND4(r, enc) \
	MOVOU aesk<>+RCON(r)(SB), X15 \
	KEY4(X0, X4, X5, enc)   \
	KEY4(X1, X6, X7, enc)   \
	KEY4(X2, X8, X9, enc)   \
	KEY4(X3, X10, X11, enc)

// LOAD4 loads four node seeds as round key 0 and whitens the two child
// plaintexts with it (0 ^ key, one ^ key); ROUNDS4 runs the ten rounds.
// X12 must hold rot.
#define LOAD4 \
	MOVOU 0(SI), X0  \
	MOVOU 16(SI), X1 \
	MOVOU 32(SI), X2 \
	MOVOU 48(SI), X3 \
	MOVO  X0, X4     \
	MOVO  X1, X6     \
	MOVO  X2, X8     \
	MOVO  X3, X10    \
	MOVOU aesk<>+ONE(SB), X5 \
	MOVO  X5, X7     \
	MOVO  X5, X9     \
	MOVO  X5, X11    \
	PXOR  X0, X5     \
	PXOR  X1, X7     \
	PXOR  X2, X9     \
	PXOR  X3, X11

#define ROUNDS4 \
	ROUND4(0, AESENC) \
	ROUND4(1, AESENC) \
	ROUND4(2, AESENC) \
	ROUND4(3, AESENC) \
	ROUND4(4, AESENC) \
	ROUND4(5, AESENC) \
	ROUND4(6, AESENC) \
	ROUND4(7, AESENC) \
	ROUND4(8, AESENC) \
	ROUND4(9, AESENCLAST)

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
	MOVOU aesk<>+ROT(SB), X12

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
// the key registers are dead: X1 holds the parent masks, X3 cw.S, X12 clr,
// X0/X2/X13-X15 are scratch; AX carries [TL,TR] in each of its four words,
// R10 a 1 in each byte.
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
	MOVOU aesk<>+ROT(SB), X12
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

// func aesniLeaf4(dst *uint32, seeds *Seed, ts *uint8, cw *CW, lc *aesLeafConsts, blocks int)
//
// The terminal step for four-lane groups: aesniStep4's correction, then
// each child's four dwords become finished shares,
// ((word + Final & -t_child) ^ neg) - neg, stored where the child seed
// would have gone. lc holds, one 16-byte vector each: Final, neg, and
// all-ones or zero for cw.TL and cw.TR. X0 holds Final, X1 the parent
// masks, X3 cw.S, X12 clr; X2/X13-X15 are scratch.
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
	PAND  X12, l          \
	PXOR  X13, l          \
	PADDL X14, l          \
	PAND  X12, r          \
	PXOR  X13, r          \
	PADDL X15, r          \
	MOVOU 16(R9), X2      \
	PXOR  X2, l           \
	PSUBL X2, l           \
	PXOR  X2, r           \
	PSUBL X2, r

TEXT ·aesniLeaf4(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ seeds+8(FP), SI
	MOVQ ts+16(FP), DX
	MOVQ cw+24(FP), R8
	MOVQ lc+32(FP), R9
	MOVQ blocks+40(FP), CX
	TESTQ CX, CX
	JLE  doneleaf4

loopleaf4:
	MOVOU aesk<>+ROT(SB), X12
	LOAD4
	ROUNDS4
	PARENTS4
	MOVOU (R9), X0
	MOVOU (R8), X3
	MOVOU aesk<>+CLR(SB), X12
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
// schedule with four nodes per ZMM register — every instruction involved
// works per 128-bit lane — the three-operand forms dropping the copies
// and VPTERNLOGD folding the last two XORs of a round key into one.
// Z0-Z3 hold the round keys of nodes 0-3, 4-7, 8-11, 12-15; Z4-Z11 the
// cipher states, Z(4+2q) the left children of quad q and Z(5+2q) the
// right; Z12 rot, Z13 t, Z14 shift temp, Z16/Z17 the output permutations,
// Z18 one, Z19-Z28 the ten rcons.
#define KEY16(k, s0, s1, rc, enc) \
	VPSHUFB Z12, k, Z13       \
	VAESENCLAST rc, Z13, Z13  \
	VPSLLDQ $4, k, Z14        \
	VPXORD  Z14, k, k         \
	VPSLLDQ $8, k, Z14        \
	VPTERNLOGD $0x96, Z14, Z13, k \
	enc     k, s0, s0         \
	enc     k, s1, s1

#define ROUND16(rc, enc) \
	KEY16(Z0, Z4, Z5, rc, enc)   \
	KEY16(Z1, Z6, Z7, rc, enc)   \
	KEY16(Z2, Z8, Z9, rc, enc)   \
	KEY16(Z3, Z10, Z11, rc, enc)

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
#define CONST16 \
	VBROADCASTI32X4 aesk<>+ROT(SB), Z12 \
	VBROADCASTI32X4 aesk<>+ONE(SB), Z18 \
	VMOVDQU64 aesperm<>+0(SB), Z16  \
	VMOVDQU64 aesperm<>+64(SB), Z17 \
	VBROADCASTI32X4 aesk<>+RCON(0)(SB), Z19 \
	VBROADCASTI32X4 aesk<>+RCON(1)(SB), Z20 \
	VBROADCASTI32X4 aesk<>+RCON(2)(SB), Z21 \
	VBROADCASTI32X4 aesk<>+RCON(3)(SB), Z22 \
	VBROADCASTI32X4 aesk<>+RCON(4)(SB), Z23 \
	VBROADCASTI32X4 aesk<>+RCON(5)(SB), Z24 \
	VBROADCASTI32X4 aesk<>+RCON(6)(SB), Z25 \
	VBROADCASTI32X4 aesk<>+RCON(7)(SB), Z26 \
	VBROADCASTI32X4 aesk<>+RCON(8)(SB), Z27 \
	VBROADCASTI32X4 aesk<>+RCON(9)(SB), Z28

// LOAD16 loads sixteen node seeds as round key 0 and whitens the child
// plaintexts (0 ^ key, one ^ key); ROUNDS16 runs the ten rounds.
#define LOAD16 \
	VMOVDQU64 0(SI), Z0   \
	VMOVDQU64 64(SI), Z1  \
	VMOVDQU64 128(SI), Z2 \
	VMOVDQU64 192(SI), Z3 \
	VMOVDQA64 Z0, Z4      \
	VMOVDQA64 Z1, Z6      \
	VMOVDQA64 Z2, Z8      \
	VMOVDQA64 Z3, Z10     \
	VPXORD  Z18, Z0, Z5   \
	VPXORD  Z18, Z1, Z7   \
	VPXORD  Z18, Z2, Z9   \
	VPXORD  Z18, Z3, Z11

#define ROUNDS16 \
	ROUND16(Z19, VAESENC) \
	ROUND16(Z20, VAESENC) \
	ROUND16(Z21, VAESENC) \
	ROUND16(Z22, VAESENC) \
	ROUND16(Z23, VAESENC) \
	ROUND16(Z24, VAESENC) \
	ROUND16(Z25, VAESENC) \
	ROUND16(Z26, VAESENC) \
	ROUND16(Z27, VAESENC) \
	ROUND16(Z28, VAESENCLAST)

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
// aesniStep4). Past the rounds the key registers Z0-Z3 and Z13/Z14 are
// scratch; Z15 holds cw.S in every lane, Z29 [TL,TR] in every word, Z30
// zero, Z31 the control-bit permutation.
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
	VPBROADCASTW AX, Z29
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
	VPTERNLOGD $0xa8, Z29, Z2, Z1        // (t | t<<8) & [TL,TR]
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
// side is set (kt) — selects the lanes that take Final (Z29), and party 1
// (K1) negates.
#define LEAF16(c, kt) \
	VPSHUFD $0, c, Z3     \
	VPXORD  Z1, Z3, kt, Z3 \
	VPTESTMD.BCST aesone<>+4(SB), Z3, K4 \
	CORR16(c)             \
	VPADDD  Z29, c, K4, c \
	VPSUBD  c, Z30, K1, c

// func vaesLeaf16(dst *uint32, seeds *Seed, ts *uint8, cw *CW, lc *aesLeafConsts, blocks int)
//
// The terminal step for four-lane groups on ZMM (see aesniLeaf4). Z29
// holds Final in every lane; K1, K2, K3 are all-ones or empty for party 1,
// cw.TL, cw.TR.
TEXT ·vaesLeaf16(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ seeds+8(FP), SI
	MOVQ ts+16(FP), DX
	MOVQ cw+24(FP), R8
	MOVQ lc+32(FP), R9
	MOVQ blocks+40(FP), CX
	TESTQ CX, CX
	JLE  doneleaf16
	CONST16
	VBROADCASTI32X4 (R8), Z15
	VBROADCASTI32X4 (R9), Z29
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
