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

// Constants, one 16-byte block each (the ZMM kernel broadcasts a block to
// its four lanes):
//   +0   rot: the PSHUFB mask
//   +16  one: child plaintext 1 (byte 0 = 0x01)
//   +32  rcon[0..9], one dword per column
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
GLOBL aesk<>(SB), RODATA|NOPTR, $192

#define ROT  0
#define ONE  16
#define RCON(r) (32+16*(r))

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

TEXT ·aesniExpand4(SB), NOSPLIT, $0-24
	MOVQ out+0(FP), DI
	MOVQ seeds+8(FP), SI
	MOVQ blocks+16(FP), CX
	TESTQ CX, CX
	JLE  done4
	MOVOU aesk<>+ROT(SB), X12

loop4:
	MOVOU 0(SI), X0          // round key 0 = node seed
	MOVOU 16(SI), X1
	MOVOU 32(SI), X2
	MOVOU 48(SI), X3
	MOVO  X0, X4             // initial AddRoundKey: 0 ^ key, one ^ key
	MOVO  X1, X6
	MOVO  X2, X8
	MOVO  X3, X10
	MOVOU aesk<>+ONE(SB), X5
	MOVO  X5, X7
	MOVO  X5, X9
	MOVO  X5, X11
	PXOR  X0, X5
	PXOR  X1, X7
	PXOR  X2, X9
	PXOR  X3, X11
	ROUND4(0, AESENC)
	ROUND4(1, AESENC)
	ROUND4(2, AESENC)
	ROUND4(3, AESENC)
	ROUND4(4, AESENC)
	ROUND4(5, AESENC)
	ROUND4(6, AESENC)
	ROUND4(7, AESENC)
	ROUND4(8, AESENC)
	ROUND4(9, AESENCLAST)
	MOVOU X4, 0(DI)
	MOVOU X5, 16(DI)
	MOVOU X6, 32(DI)
	MOVOU X7, 48(DI)
	MOVOU X8, 64(DI)
	MOVOU X9, 80(DI)
	MOVOU X10, 96(DI)
	MOVOU X11, 112(DI)
	ADDQ $64, SI
	ADDQ $128, DI
	DECQ CX
	JNZ  loop4

done4:
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

TEXT ·vaesExpand16(SB), NOSPLIT, $0-24
	MOVQ out+0(FP), DI
	MOVQ seeds+8(FP), SI
	MOVQ blocks+16(FP), CX
	TESTQ CX, CX
	JLE  done16
	VBROADCASTI32X4 aesk<>+ROT(SB), Z12
	VBROADCASTI32X4 aesk<>+ONE(SB), Z18
	VMOVDQU64 aesperm<>+0(SB), Z16
	VMOVDQU64 aesperm<>+64(SB), Z17
	VBROADCASTI32X4 aesk<>+RCON(0)(SB), Z19
	VBROADCASTI32X4 aesk<>+RCON(1)(SB), Z20
	VBROADCASTI32X4 aesk<>+RCON(2)(SB), Z21
	VBROADCASTI32X4 aesk<>+RCON(3)(SB), Z22
	VBROADCASTI32X4 aesk<>+RCON(4)(SB), Z23
	VBROADCASTI32X4 aesk<>+RCON(5)(SB), Z24
	VBROADCASTI32X4 aesk<>+RCON(6)(SB), Z25
	VBROADCASTI32X4 aesk<>+RCON(7)(SB), Z26
	VBROADCASTI32X4 aesk<>+RCON(8)(SB), Z27
	VBROADCASTI32X4 aesk<>+RCON(9)(SB), Z28

loop16:
	VMOVDQU64 0(SI), Z0      // round key 0 = node seed
	VMOVDQU64 64(SI), Z1
	VMOVDQU64 128(SI), Z2
	VMOVDQU64 192(SI), Z3
	VMOVDQA64 Z0, Z4         // initial AddRoundKey: 0 ^ key, one ^ key
	VMOVDQA64 Z1, Z6
	VMOVDQA64 Z2, Z8
	VMOVDQA64 Z3, Z10
	VPXORD  Z18, Z0, Z5
	VPXORD  Z18, Z1, Z7
	VPXORD  Z18, Z2, Z9
	VPXORD  Z18, Z3, Z11
	ROUND16(Z19, VAESENC)
	ROUND16(Z20, VAESENC)
	ROUND16(Z21, VAESENC)
	ROUND16(Z22, VAESENC)
	ROUND16(Z23, VAESENC)
	ROUND16(Z24, VAESENC)
	ROUND16(Z25, VAESENC)
	ROUND16(Z26, VAESENC)
	ROUND16(Z27, VAESENC)
	ROUND16(Z28, VAESENCLAST)
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
