//go:build amd64 && !purego

#include "textflag.h"

// func accumulateRowsAVX2(dst, leaves, rows *uint32, lanes, simdLanes, n int)
//
// dst[l] += leaves[j] * rows[j*lanes+l] (mod 2^32) for j in [0,n),
// l in [0,simdLanes). The lane range is walked in chunks of 16 (two YMM
// accumulators amortizing each leaf broadcast) then 8; for each chunk the
// accumulators stay in registers across the whole row block, so a row's
// chunk is loaded exactly once (VPMULLD with a memory operand) and dst is
// touched exactly twice. All accesses are unaligned-tolerant.
//
// Register use: DI dst, SI leaves, DX rows, CX row stride in bytes,
// R8 simd byte width, R9 n, R10 lane byte offset, R12 row cursor,
// R13 leaf cursor, R14 row counter; Y0/Y1 accumulators, Y2 broadcast
// leaf, Y3/Y4 products.
TEXT ·accumulateRowsAVX2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ leaves+8(FP), SI
	MOVQ rows+16(FP), DX
	MOVQ lanes+24(FP), CX
	SHLQ $2, CX              // row stride in bytes
	MOVQ simdLanes+32(FP), R8
	SHLQ $2, R8              // SIMD-covered byte width
	MOVQ n+40(FP), R9
	TESTQ R9, R9
	JZ   done
	XORQ R10, R10            // lane byte offset

chunk16:
	LEAQ 64(R10), R11
	CMPQ R11, R8
	JA   chunk8              // fewer than 16 lanes remain
	VMOVDQU (DI)(R10*1), Y0
	VMOVDQU 32(DI)(R10*1), Y1
	LEAQ (DX)(R10*1), R12    // row cursor at this lane offset
	MOVQ SI, R13             // leaf cursor
	MOVQ R9, R14

rows16:
	VPBROADCASTD (R13), Y2
	VPMULLD (R12), Y2, Y3
	VPMULLD 32(R12), Y2, Y4
	VPADDD  Y3, Y0, Y0
	VPADDD  Y4, Y1, Y1
	ADDQ $4, R13
	ADDQ CX, R12
	DECQ R14
	JNZ  rows16

	VMOVDQU Y0, (DI)(R10*1)
	VMOVDQU Y1, 32(DI)(R10*1)
	ADDQ $64, R10
	JMP  chunk16

chunk8:
	CMPQ R10, R8
	JAE  done                // SIMD-covered lanes exhausted
	VMOVDQU (DI)(R10*1), Y0
	LEAQ (DX)(R10*1), R12
	MOVQ SI, R13
	MOVQ R9, R14

rows8:
	VPBROADCASTD (R13), Y2
	VPMULLD (R12), Y2, Y3
	VPADDD  Y3, Y0, Y0
	ADDQ $4, R13
	ADDQ CX, R12
	DECQ R14
	JNZ  rows8

	VMOVDQU Y0, (DI)(R10*1)
	ADDQ $32, R10
	JMP  chunk8

done:
	VZEROUPPER
	RET
