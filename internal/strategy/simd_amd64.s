//go:build amd64 && !purego

#include "textflag.h"

// Register-blocked accumulate microkernels: answers[Q×lanes] +=
// leaves[Q×n] · rows[n×lanes] mod 2^32, one call per (row block, query
// group). A call pins a tile of Q queries × W lane vectors of answer
// accumulators in registers, walks the block's n rows once per tile — each
// table vector is loaded once and multiplied by the Q queries' broadcast
// leaf shares — and only then moves W vectors along the row, so the
// answers are touched twice per tile and the multiplier, not the load
// ports, is what the loop waits for. Lanes past the last whole W-vector
// tile go through the one-vector body under a lane mask (all ones for a
// whole vector, the low lanes for the row's tail): masked-out lanes are
// neither loaded nor stored, so nothing is read past the table slice or
// written past an answer buffer, for any lanes ≥ 1. Q is 4, 2 or 1; a
// 3-query remainder is a 2 and a 1, never a padded 4.
//
// Shared register use: AX &answers[q] (slice headers, 24 bytes apart),
// BX lane bytes still to do, CX row cursor, DX rows, SI row stride in
// bytes, DI n, R8–R11 the queries' leaf cursors (&leaves[q+i][leafOff]),
// R12 row index, R13 scratch, R14 lane byte offset.

// STRIP walks the lanes in tiles of `step` bytes while at least `min`
// remain. PRE runs before each tile (the mask set-up), LD/ST load and
// store its accumulators, ROW loads the table vectors of one row and MAC
// multiply-accumulates them against every query's leaf share.
#define STRIP(top, rows, next, min, step, PRE, LD, ROW, MAC, ST) \
top: \
	CMPQ BX, $min         \
	JLT  next             \
	PRE                   \
	LD                    \
	LEAQ (DX)(R14*1), CX  \
	XORQ R12, R12         \
rows: \
	ROW                   \
	MAC                   \
	ADDQ SI, CX           \
	INCQ R12              \
	CMPQ R12, DI          \
	JLT  rows             \
	ST                    \
	ADDQ $step, R14       \
	SUBQ $step, BX        \
	JMP  top

#define NONE

// LEAF points cursor at query i's (header offset hdr) first leaf share.
#define LEAF(hdr, cursor) \
	MOVQ hdr(BX), cursor \
	LEAQ (cursor)(CX*4), cursor

// ---- AVX-512 tier: 16 lanes per ZMM -----------------------------------
//
// Two and four queries multiply on IFMA: VPMADD52LUQ adds the low 52 bits
// of each 64-bit lane's product to a 64-bit accumulator, and a sum's low
// 32 bits depend only on the low 32 bits of what is multiplied and added,
// so a 64-bit lane computes the mod-2^32 product-sum of the dwords in its
// low halves whatever lies above them. The table's even dwords are used in
// place, its odd dwords come from one VPSRLQ shared by every query of the
// group, and the leaf share is broadcast to both halves of every 64-bit
// lane with VPBROADCASTD (IFMA's {1to8} memory broadcast would read 8
// bytes, past the end of a leaf slice). A query so keeps an even and an
// odd accumulator per table vector, split from the answers at the strip's
// start and re-interleaved once at its end (K2 selects the odd dwords).
// Strips are 2 vectors wide: Z0–Z15 accumulators (query i owns
// Z(4i)..Z(4i+3): even, odd of vector 0, even, odd of vector 1), Z16/Z17
// the row's table vectors and Z18/Z19 their odd dwords, Z20–Z23 the
// queries' broadcast leaf shares, K1 the one-vector body's lane mask. One
// VPMADD52LUQ covers 8 lanes where VPMULLD+VPADDD covered 16, and still
// the strips run faster (see accumulateChunkSIMD).
//
// A lone query holds a 64-lane strip in Z0–Z3 on VPMULLD: four
// independent multiply-add chains per row hide its latency, and the leaf
// share is an embedded-broadcast memory operand (see accumulateChunkSIMD
// for the measurements that chose it).

#define LD4Z1 \
	MOVQ (AX), R13                \
	VMOVDQU32 (R13)(R14*1), Z0    \
	VMOVDQU32 64(R13)(R14*1), Z1  \
	VMOVDQU32 128(R13)(R14*1), Z2 \
	VMOVDQU32 192(R13)(R14*1), Z3
#define ST4Z1 \
	MOVQ (AX), R13                \
	VMOVDQU32 Z0, (R13)(R14*1)    \
	VMOVDQU32 Z1, 64(R13)(R14*1)  \
	VMOVDQU32 Z2, 128(R13)(R14*1) \
	VMOVDQU32 Z3, 192(R13)(R14*1)
#define LD1Z1 \
	MOVQ (AX), R13 \
	VMOVDQU32.Z (R13)(R14*1), K1, Z0
#define ST1Z1 \
	MOVQ (AX), R13 \
	VMOVDQU32 Z0, K1, (R13)(R14*1)
#define ROW4Z \
	VMOVDQU32 (CX), Z16    \
	VMOVDQU32 64(CX), Z17  \
	VMOVDQU32 128(CX), Z18 \
	VMOVDQU32 192(CX), Z19
#define ROW1Z \
	VMOVDQU32.Z (CX), K1, Z16
#define MAC4Z1 \
	VPMULLD.BCST (R8)(R12*4), Z16, Z20 \
	VPMULLD.BCST (R8)(R12*4), Z17, Z21 \
	VPMULLD.BCST (R8)(R12*4), Z18, Z22 \
	VPMULLD.BCST (R8)(R12*4), Z19, Z23 \
	VPADDD Z20, Z0, Z0 \
	VPADDD Z21, Z1, Z1 \
	VPADDD Z22, Z2, Z2 \
	VPADDD Z23, Z3, Z3
#define MAC1Z1 \
	VPMULLD.BCST (R8)(R12*4), Z16, Z20 \
	VPADDD Z20, Z0, Z0
// MASKZ sets K1 to the low min(BX/4, 16) lanes.
#define MASKZ \
	MOVQ BX, CX      \
	SHRQ $2, CX      \
	MOVQ $16, R13    \
	CMPQ CX, R13     \
	CMOVQGT R13, CX  \
	MOVQ $1, R13     \
	SHLQ CX, R13     \
	DECQ R13         \
	KMOVW R13, K1

// The IFMA bodies: LD splits a query's answer vectors into even and odd
// accumulators, ST re-interleaves and stores them, ROW loads a row's table
// vectors with their odd dwords, MAC broadcasts a query's leaf share into
// l and multiply-adds it into the query's accumulators.
#define LD2F(hdr, e0, o0, e1, o1) \
	MOVQ hdr(AX), R13             \
	VMOVDQU32 (R13)(R14*1), e0    \
	VMOVDQU32 64(R13)(R14*1), e1  \
	VPSRLQ $32, e0, o0            \
	VPSRLQ $32, e1, o1
#define ST2F(hdr, e0, o0, e1, o1) \
	VPSLLQ $32, o0, o0            \
	VPSLLQ $32, o1, o1            \
	VPBLENDMD o0, e0, K2, e0      \
	VPBLENDMD o1, e1, K2, e1      \
	MOVQ hdr(AX), R13             \
	VMOVDQU32 e0, (R13)(R14*1)    \
	VMOVDQU32 e1, 64(R13)(R14*1)
#define LD1F(hdr, e0, o0) \
	MOVQ hdr(AX), R13                \
	VMOVDQU32.Z (R13)(R14*1), K1, e0 \
	VPSRLQ $32, e0, o0
#define ST1F(hdr, e0, o0) \
	VPSLLQ $32, o0, o0            \
	VPBLENDMD o0, e0, K2, e0      \
	MOVQ hdr(AX), R13             \
	VMOVDQU32 e0, K1, (R13)(R14*1)
#define ROW2F \
	VMOVDQU32 (CX), Z16    \
	VMOVDQU32 64(CX), Z17  \
	VPSRLQ $32, Z16, Z18   \
	VPSRLQ $32, Z17, Z19
#define ROW1F \
	VMOVDQU32.Z (CX), K1, Z16 \
	VPSRLQ $32, Z16, Z18
#define MAC2F(leaf, l, e0, o0, e1, o1) \
	VPBROADCASTD (leaf)(R12*4), l \
	VPMADD52LUQ Z16, l, e0        \
	VPMADD52LUQ Z18, l, o0        \
	VPMADD52LUQ Z17, l, e1        \
	VPMADD52LUQ Z19, l, o1
#define MAC1F(leaf, l, e0, o0) \
	VPBROADCASTD (leaf)(R12*4), l \
	VPMADD52LUQ Z16, l, e0        \
	VPMADD52LUQ Z18, l, o0

#define LD2F2 \
	LD2F(0, Z0, Z1, Z2, Z3) \
	LD2F(24, Z4, Z5, Z6, Z7)
#define LD2F4 LD2F2 \
	LD2F(48, Z8, Z9, Z10, Z11) \
	LD2F(72, Z12, Z13, Z14, Z15)
#define ST2F2 \
	ST2F(0, Z0, Z1, Z2, Z3) \
	ST2F(24, Z4, Z5, Z6, Z7)
#define ST2F4 ST2F2 \
	ST2F(48, Z8, Z9, Z10, Z11) \
	ST2F(72, Z12, Z13, Z14, Z15)
#define MAC2F2 \
	MAC2F(R8, Z20, Z0, Z1, Z2, Z3) \
	MAC2F(R9, Z21, Z4, Z5, Z6, Z7)
#define MAC2F4 MAC2F2 \
	MAC2F(R10, Z22, Z8, Z9, Z10, Z11) \
	MAC2F(R11, Z23, Z12, Z13, Z14, Z15)
#define LD1F2 \
	LD1F(0, Z0, Z1) \
	LD1F(24, Z4, Z5)
#define LD1F4 LD1F2 \
	LD1F(48, Z8, Z9) \
	LD1F(72, Z12, Z13)
#define ST1F2 \
	ST1F(0, Z0, Z1) \
	ST1F(24, Z4, Z5)
#define ST1F4 ST1F2 \
	ST1F(48, Z8, Z9) \
	ST1F(72, Z12, Z13)
#define MAC1F2 \
	MAC1F(R8, Z20, Z0, Z1) \
	MAC1F(R9, Z21, Z4, Z5)
#define MAC1F4 MAC1F2 \
	MAC1F(R10, Z22, Z8, Z9) \
	MAC1F(R11, Z23, Z12, Z13)

// func accTileAVX512(ans, leaves *[]uint32, q, leafOff int, rows *uint32, lanes, n int)
TEXT ·accTileAVX512(SB), NOSPLIT, $0-56
	MOVQ ans+0(FP), AX
	MOVQ leaves+8(FP), BX
	MOVQ q+16(FP), R12
	MOVQ leafOff+24(FP), CX
	MOVQ rows+32(FP), DX
	MOVQ lanes+40(FP), SI
	MOVQ n+48(FP), DI
	SHLQ $2, SI
	XORQ R14, R14
	MOVQ $0xaaaa, R13
	KMOVW R13, K2
	LEAF(0, R8)
	CMPQ R12, $2
	JLT  z1
	LEAF(24, R9)
	CMPQ R12, $4
	JLT  f2
	LEAF(48, R10)
	LEAF(72, R11)
	MOVQ SI, BX
	STRIP(f4w, f4wr, f4m, 128, 128, NONE, LD2F4, ROW2F, MAC2F4, ST2F4)
	STRIP(f4m, f4mr, zdone, 4, 64, MASKZ, LD1F4, ROW1F, MAC1F4, ST1F4)
f2:
	MOVQ SI, BX
	STRIP(f2w, f2wr, f2m, 128, 128, NONE, LD2F2, ROW2F, MAC2F2, ST2F2)
	STRIP(f2m, f2mr, zdone, 4, 64, MASKZ, LD1F2, ROW1F, MAC1F2, ST1F2)
z1:
	MOVQ SI, BX
	STRIP(z1w, z1wr, z1m, 256, 256, NONE, LD4Z1, ROW4Z, MAC4Z1, ST4Z1)
	STRIP(z1m, z1mr, zdone, 4, 64, MASKZ, LD1Z1, ROW1Z, MAC1Z1, ST1Z1)
zdone:
	VZEROUPPER
	RET

// ---- AVX2 tier: 8 lanes per YMM, 2-vector tiles ------------------------
//
// Y0–Y7 accumulators (query i owns Y(2i), Y(2i+1)), Y8/Y9 the row's table
// vectors, Y10 the broadcast leaf share, Y11/Y12 products, Y15 the
// one-vector body's lane mask (VPMASKMOVD; a window of accmask).

// accmask: 8 all-ones dwords then 8 zero dwords; the 32 bytes starting at
// byte 32-m mask the low m/4 lanes.
DATA accmask<>+0(SB)/8, $-1
DATA accmask<>+8(SB)/8, $-1
DATA accmask<>+16(SB)/8, $-1
DATA accmask<>+24(SB)/8, $-1
DATA accmask<>+32(SB)/8, $0
DATA accmask<>+40(SB)/8, $0
DATA accmask<>+48(SB)/8, $0
DATA accmask<>+56(SB)/8, $0
GLOBL accmask<>(SB), RODATA|NOPTR, $64

#define LD2Y(hdr, a0, a1) \
	MOVQ hdr(AX), R13        \
	VMOVDQU (R13)(R14*1), a0   \
	VMOVDQU 32(R13)(R14*1), a1
#define ST2Y(hdr, a0, a1) \
	MOVQ hdr(AX), R13        \
	VMOVDQU a0, (R13)(R14*1)   \
	VMOVDQU a1, 32(R13)(R14*1)
#define LD1Y(hdr, a0) \
	MOVQ hdr(AX), R13 \
	VPMASKMOVD (R13)(R14*1), Y15, a0
#define ST1Y(hdr, a0) \
	MOVQ hdr(AX), R13 \
	VPMASKMOVD a0, Y15, (R13)(R14*1)
#define ROW2Y \
	VMOVDQU (CX), Y8 \
	VMOVDQU 32(CX), Y9
#define ROW1Y \
	VPMASKMOVD (CX), Y15, Y8
#define MAC2Y(leaf, a0, a1) \
	VPBROADCASTD (leaf)(R12*4), Y10 \
	VPMULLD Y8, Y10, Y11 \
	VPMULLD Y9, Y10, Y12 \
	VPADDD Y11, a0, a0   \
	VPADDD Y12, a1, a1
#define MAC1Y(leaf, a0) \
	VPBROADCASTD (leaf)(R12*4), Y10 \
	VPMULLD Y8, Y10, Y11 \
	VPADDD Y11, a0, a0
// MASKY sets Y15 to the low min(BX/4, 8) lanes.
#define MASKY \
	MOVQ BX, CX      \
	MOVQ $32, R13    \
	CMPQ CX, R13     \
	CMOVQGT R13, CX  \
	NEGQ CX          \
	LEAQ accmask<>+32(SB), R13 \
	VMOVDQU (R13)(CX*1), Y15

#define LD2Y1 LD2Y(0, Y0, Y1)
#define LD2Y2 LD2Y1 \
	LD2Y(24, Y2, Y3)
#define LD2Y4 LD2Y2 \
	LD2Y(48, Y4, Y5) \
	LD2Y(72, Y6, Y7)
#define ST2Y1 ST2Y(0, Y0, Y1)
#define ST2Y2 ST2Y1 \
	ST2Y(24, Y2, Y3)
#define ST2Y4 ST2Y2 \
	ST2Y(48, Y4, Y5) \
	ST2Y(72, Y6, Y7)
#define MAC2Y1 MAC2Y(R8, Y0, Y1)
#define MAC2Y2 MAC2Y1 \
	MAC2Y(R9, Y2, Y3)
#define MAC2Y4 MAC2Y2 \
	MAC2Y(R10, Y4, Y5) \
	MAC2Y(R11, Y6, Y7)
#define LD1Y1 LD1Y(0, Y0)
#define LD1Y2 LD1Y1 \
	LD1Y(24, Y2)
#define LD1Y4 LD1Y2 \
	LD1Y(48, Y4) \
	LD1Y(72, Y6)
#define ST1Y1 ST1Y(0, Y0)
#define ST1Y2 ST1Y1 \
	ST1Y(24, Y2)
#define ST1Y4 ST1Y2 \
	ST1Y(48, Y4) \
	ST1Y(72, Y6)
#define MAC1Y1 MAC1Y(R8, Y0)
#define MAC1Y2 MAC1Y1 \
	MAC1Y(R9, Y2)
#define MAC1Y4 MAC1Y2 \
	MAC1Y(R10, Y4) \
	MAC1Y(R11, Y6)

// func accTileAVX2(ans, leaves *[]uint32, q, leafOff int, rows *uint32, lanes, n int)
TEXT ·accTileAVX2(SB), NOSPLIT, $0-56
	MOVQ ans+0(FP), AX
	MOVQ leaves+8(FP), BX
	MOVQ q+16(FP), R12
	MOVQ leafOff+24(FP), CX
	MOVQ rows+32(FP), DX
	MOVQ lanes+40(FP), SI
	MOVQ n+48(FP), DI
	SHLQ $2, SI
	XORQ R14, R14
	LEAF(0, R8)
	CMPQ R12, $2
	JLT  y1
	LEAF(24, R9)
	CMPQ R12, $4
	JLT  y2
	LEAF(48, R10)
	LEAF(72, R11)
	MOVQ SI, BX
	STRIP(y4w, y4wr, y4m, 64, 64, NONE, LD2Y4, ROW2Y, MAC2Y4, ST2Y4)
	STRIP(y4m, y4mr, ydone, 4, 32, MASKY, LD1Y4, ROW1Y, MAC1Y4, ST1Y4)
y2:
	MOVQ SI, BX
	STRIP(y2w, y2wr, y2m, 64, 64, NONE, LD2Y2, ROW2Y, MAC2Y2, ST2Y2)
	STRIP(y2m, y2mr, ydone, 4, 32, MASKY, LD1Y2, ROW1Y, MAC1Y2, ST1Y2)
y1:
	MOVQ SI, BX
	STRIP(y1w, y1wr, y1m, 64, 64, NONE, LD2Y1, ROW2Y, MAC2Y1, ST2Y1)
	STRIP(y1m, y1mr, ydone, 4, 32, MASKY, LD1Y1, ROW1Y, MAC1Y1, ST1Y1)
ydone:
	VZEROUPPER
	RET
