//go:build amd64 && !purego

#include "go_asm.h"
#include "textflag.h"

// AMX-INT8 accumulate tier: answers[Q×lanes] += leaves[Q×n] · rows[n×lanes]
// mod 2^32 on the tile matrix unit (amx_amd64.go has the identity and the
// operand layouts). Go's assembler has no AMX mnemonics, so the tile
// instructions are BYTE-encoded; each macro names the one instruction it
// emits, operands in Intel order, and the bytes were taken from GNU as.
//
// Tile registers: tmm0–tmm3 the accumulators C0–C3, tmm4 the table tile B,
// tmm5–tmm7 the leaf planes A (A3 and A0 share tmm5).

#define LDTILECFG_AX     BYTE $0xc4; BYTE $0xe2; BYTE $0x78; BYTE $0x49; BYTE $0x00
#define LDTILECFG_64AX   BYTE $0xc4; BYTE $0xe2; BYTE $0x78; BYTE $0x49; BYTE $0x40; BYTE $0x40
#define TILERELEASE      BYTE $0xc4; BYTE $0xe2; BYTE $0x78; BYTE $0x49; BYTE $0xc0
#define TILEZERO_0       BYTE $0xc4; BYTE $0xe2; BYTE $0x7b; BYTE $0x49; BYTE $0xc0
#define TILEZERO_1       BYTE $0xc4; BYTE $0xe2; BYTE $0x7b; BYTE $0x49; BYTE $0xc8
#define TILEZERO_2       BYTE $0xc4; BYTE $0xe2; BYTE $0x7b; BYTE $0x49; BYTE $0xd0
#define TILEZERO_3       BYTE $0xc4; BYTE $0xe2; BYTE $0x7b; BYTE $0x49; BYTE $0xd8
// tileloadd tmm4, [rcx + rsi*1]: 16 table rows, rsi bytes apart.
#define TILELOAD_B       BYTE $0xc4; BYTE $0xe2; BYTE $0x7b; BYTE $0x4b; BYTE $0x24; BYTE $0x31
// tileloadd tmmN, [r15 + r9*1 + plane*1024]: one leaf plane, r9 = 64.
#define TILELOAD_A3_5    BYTE $0xc4; BYTE $0x82; BYTE $0x7b; BYTE $0x4b; BYTE $0xac; BYTE $0x0f; LONG $0x00000c00
#define TILELOAD_A2_6    BYTE $0xc4; BYTE $0x82; BYTE $0x7b; BYTE $0x4b; BYTE $0xb4; BYTE $0x0f; LONG $0x00000800
#define TILELOAD_A1_7    BYTE $0xc4; BYTE $0x82; BYTE $0x7b; BYTE $0x4b; BYTE $0xbc; BYTE $0x0f; LONG $0x00000400
#define TILELOAD_A0_5    BYTE $0xc4; BYTE $0x82; BYTE $0x7b; BYTE $0x4b; BYTE $0x2c; BYTE $0x0f
// tdpbuud tmmC, tmmA, tmm4: C[q][n] += Σ_k Σ_b A[q][4k+b] · B[k][4n+b].
#define TDPBUUD_3_5_4    BYTE $0xc4; BYTE $0xe2; BYTE $0x58; BYTE $0x5e; BYTE $0xdd
#define TDPBUUD_2_6_4    BYTE $0xc4; BYTE $0xe2; BYTE $0x58; BYTE $0x5e; BYTE $0xd6
#define TDPBUUD_1_7_4    BYTE $0xc4; BYTE $0xe2; BYTE $0x58; BYTE $0x5e; BYTE $0xcf
#define TDPBUUD_0_5_4    BYTE $0xc4; BYTE $0xe2; BYTE $0x58; BYTE $0x5e; BYTE $0xc5
// tilestored [rbx + r9*1 + s*1024], tmmS.
#define TILESTORE_0      BYTE $0xc4; BYTE $0xa2; BYTE $0x7a; BYTE $0x4b; BYTE $0x04; BYTE $0x0b
#define TILESTORE_1      BYTE $0xc4; BYTE $0xa2; BYTE $0x7a; BYTE $0x4b; BYTE $0x8c; BYTE $0x0b; LONG $0x00000400
#define TILESTORE_2      BYTE $0xc4; BYTE $0xa2; BYTE $0x7a; BYTE $0x4b; BYTE $0x94; BYTE $0x0b; LONG $0x00000800
#define TILESTORE_3      BYTE $0xc4; BYTE $0xa2; BYTE $0x7a; BYTE $0x4b; BYTE $0x9c; BYTE $0x0b; LONG $0x00000c00

// The macros below are amxAccPanel's body; its header comment has the
// register plan. amxRingBytes is the plane ring, 4 KiB per step.
#define amxRingBytes (const_amxRingSteps*4096)

// PLANES writes one step's leaf planes to DI: for each of the nq queries,
// 16 leaf shares byte-reversed (Z4 holds the VPSHUFB control) are plane 3,
// and that shifted right 8, 16, 24 bits planes 2, 1, 0 — dword bytes
// (a_s, a_{s−1}, …, a_0, 0, …). Clobbers AX, R12, R13.
#define PLANES(loop) \
	MOVQ leaves+64(FP), AX   \
	MOVQ nq+80(FP), R12      \
loop: \
	MOVQ (AX), R13           \
	ADDQ loff-16(SP), R13    \
	VMOVDQU32 (R13), Z3      \
	VPSHUFB   Z4, Z3, Z3     \
	VPSRLD    $8, Z3, Z2     \
	VPSRLD    $16, Z3, Z1    \
	VPSRLD    $24, Z3, Z0    \
	VMOVDQU32 Z0, (DI)       \
	VMOVDQU32 Z1, 1024(DI)   \
	VMOVDQU32 Z2, 2048(DI)   \
	VMOVDQU32 Z3, 3072(DI)   \
	ADDQ $24, AX             \
	ADDQ $64, DI             \
	DECQ R12                 \
	JNZ  loop                \
	ADDQ $64, loff-16(SP)

// NEXTROWS moves the step cursors on: the plane cursor one ring slot
// (wrapping), the table cursor 16 rows, the prefetch cursor — which walks
// the bytes the next call will stream — eight cache lines.
#define NEXTROWS \
	PREFETCHT1 (R11)     \
	PREFETCHT1 64(R11)   \
	PREFETCHT1 128(R11)  \
	PREFETCHT1 192(R11)  \
	PREFETCHT1 256(R11)  \
	PREFETCHT1 320(R11)  \
	PREFETCHT1 384(R11)  \
	PREFETCHT1 448(R11)  \
	ADDQ $512, R11       \
	ADDQ $4096, R15      \
	LEAQ amxRingBytes(R8), AX \
	CMPQ R15, AX         \
	CMOVQEQ R8, R15      \
	LEAQ (CX)(SI*8), CX  \
	LEAQ (CX)(SI*8), CX

// STEP is one 16-row step: the table tile at CX against the four planes at
// R15, TDPBUUD order C3, C2, C1, C0.
#define STEP \
	TILELOAD_B     \
	TILELOAD_A3_5  \
	TDPBUUD_3_5_4  \
	TILELOAD_A2_6  \
	TDPBUUD_2_6_4  \
	TILELOAD_A1_7  \
	TDPBUUD_1_7_4  \
	TILELOAD_A0_5  \
	TDPBUUD_0_5_4  \
	NEXTROWS

// SPILLSTEP is STEP for the first step of a lane tile that follows another:
// each accumulator is stored and zeroed just before its first TDPBUUD, so
// the previous tile's last products drain under this tile's first ones.
#define SPILLSTEP \
	TILESTORE_3    \
	TILEZERO_3     \
	TILELOAD_B     \
	TILELOAD_A3_5  \
	TDPBUUD_3_5_4  \
	TILESTORE_2    \
	TILEZERO_2     \
	TILELOAD_A2_6  \
	TDPBUUD_2_6_4  \
	TILESTORE_1    \
	TILEZERO_1     \
	TILELOAD_A1_7  \
	TDPBUUD_1_7_4  \
	TILESTORE_0    \
	TILEZERO_0     \
	TILELOAD_A0_5  \
	TDPBUUD_0_5_4  \
	NEXTROWS

// SPILL stores all four accumulators.
#define SPILL \
	TILESTORE_3    \
	TILESTORE_2    \
	TILESTORE_1    \
	TILESTORE_0

// FOLD adds the stored accumulators into the answers' 16 lanes that end at
// byte offset R14, under mask K1: ans += C0 + C1<<8 + C2<<16 + C3<<24.
// Clobbers AX, DI, R12, R13.
#define FOLD(loop) \
	MOVQ BX, AX               \
	MOVQ ans+56(FP), R12      \
	MOVQ nq+80(FP), R13       \
loop: \
	VMOVDQU32 (AX), Z0        \
	VPSLLD $8, 1024(AX), Z1   \
	VPSLLD $16, 2048(AX), Z2  \
	VPSLLD $24, 3072(AX), Z3  \
	VPADDD Z1, Z0, Z0         \
	VPADDD Z3, Z2, Z2         \
	VPADDD Z2, Z0, Z0         \
	MOVQ (R12), DI            \
	VPADDD -64(DI)(R14*1), Z0, K1, Z0   \
	VMOVDQU32 Z0, K1, -64(DI)(R14*1)    \
	ADDQ $64, AX              \
	ADDQ $24, R12             \
	DECQ R13                  \
	JNZ  loop

// ---- The packed body: tiles of nq ≤ 4 queries ---------------------------
//
// One A tile holds all four planes of the nq queries: row s·nq+q is plane s
// of query q (PLANES with a plane stride of 64·nq bytes), so a step is one
// TDPBUUD per 16 lanes, its accumulator tile's row s·nq+q the plane-s sum of
// query q. Four lane tiles run against one A load, their accumulators
// tmm0–tmm3, their table tiles alternating tmm5 and tmm6; A is tmm4. The
// tile registers tmm0–tmm3 and the spill at BX are shared with amxAccPanel
// (TILEZERO_n, TILESTORE_n).

// tileloadd tmm4, [r15 + r9*1]: one step's packed planes, r9 = 64.
#define TILELOAD_PA_4    BYTE $0xc4; BYTE $0x82; BYTE $0x7b; BYTE $0x4b; BYTE $0x24; BYTE $0x0f
// tileloadd tmmB, [rcx + rsi*1 + 64t]: lane tile t's 16 table rows.
#define TILELOAD_B0_5    BYTE $0xc4; BYTE $0xe2; BYTE $0x7b; BYTE $0x4b; BYTE $0x2c; BYTE $0x31
#define TILELOAD_B1_6    BYTE $0xc4; BYTE $0xe2; BYTE $0x7b; BYTE $0x4b; BYTE $0x74; BYTE $0x31; BYTE $0x40
#define TILELOAD_B2_5    BYTE $0xc4; BYTE $0xe2; BYTE $0x7b; BYTE $0x4b; BYTE $0xac; BYTE $0x31; LONG $0x00000080
#define TILELOAD_B3_6    BYTE $0xc4; BYTE $0xe2; BYTE $0x7b; BYTE $0x4b; BYTE $0xb4; BYTE $0x31; LONG $0x000000c0
// tdpbuud tmmT, tmm4, tmmB.
#define TDPBUUD_0_4_5    BYTE $0xc4; BYTE $0xe2; BYTE $0x50; BYTE $0x5e; BYTE $0xc4
#define TDPBUUD_1_4_6    BYTE $0xc4; BYTE $0xe2; BYTE $0x48; BYTE $0x5e; BYTE $0xcc
#define TDPBUUD_2_4_5    BYTE $0xc4; BYTE $0xe2; BYTE $0x50; BYTE $0x5e; BYTE $0xd4
#define TDPBUUD_3_4_6    BYTE $0xc4; BYTE $0xe2; BYTE $0x48; BYTE $0x5e; BYTE $0xdc

// PPLANES is PLANES into one packed ring slot at DI: plane s of query q at
// DI + s·ps + 64q. Clobbers AX, R12, R13.
#define PPLANES(loop) \
	MOVQ leaves+64(FP), AX   \
	MOVQ ps-24(SP), R12      \
loop: \
	MOVQ (AX), R13           \
	ADDQ loff-8(SP), R13     \
	VMOVDQU32 (R13), Z3      \
	VPSHUFB   Z4, Z3, Z3     \
	VPSRLD    $8, Z3, Z2     \
	VPSRLD    $16, Z3, Z1    \
	VPSRLD    $24, Z3, Z0    \
	LEAQ (DI)(R12*2), R13    \
	VMOVDQU32 Z0, (DI)       \
	VMOVDQU32 Z1, (DI)(R12*1)  \
	VMOVDQU32 Z2, (R13)      \
	VMOVDQU32 Z3, (R13)(R12*1) \
	ADDQ $24, AX             \
	ADDQ $64, DI             \
	CMPQ AX, lend-32(SP)     \
	JNE  loop                \
	ADDQ $64, loff-8(SP)

// CONVERT writes the planes of the next step still to convert, if any, to
// ring slot cv and moves cv on. Clobbers AX, DI, R12, R13.
#define CONVERT(skip, loop) \
	CMPQ left-64(SP), $0      \
	JEQ  skip                 \
	MOVQ cv-72(SP), DI        \
	PPLANES(loop)             \
	MOVQ cv-72(SP), DI        \
	ADDQ $1024, DI            \
	LEAQ amxRingBytes(R8), AX \
	CMPQ DI, AX               \
	CMOVQEQ R8, DI            \
	MOVQ DI, cv-72(SP)        \
	DECQ left-64(SP)          \
skip:

// PNEXT prefetches 512 bytes at the prefetch cursor and moves it pfs bytes
// on (nothing when pfs is 0), then moves the plane cursor one 1 KiB ring
// slot (wrapping) and the table cursor 16 rows.
#define PNEXT(nopf) \
	CMPQ pfs+96(FP), $0  \
	JEQ  nopf            \
	PREFETCHT1 (R11)     \
	PREFETCHT1 64(R11)   \
	PREFETCHT1 128(R11)  \
	PREFETCHT1 192(R11)  \
	PREFETCHT1 256(R11)  \
	PREFETCHT1 320(R11)  \
	PREFETCHT1 384(R11)  \
	PREFETCHT1 448(R11)  \
	ADDQ pfs+96(FP), R11 \
nopf: \
	ADDQ $1024, R15      \
	LEAQ amxRingBytes(R8), AX \
	CMPQ R15, AX         \
	CMOVQEQ R8, R15      \
	LEAQ (CX)(SI*8), CX  \
	LEAQ (CX)(SI*8), CX

// PSTEP is one 16-row step over the group's nt lane tiles: one A load, then
// a table tile and a TDPBUUD per lane tile.
#define PSTEP(done, nopf) \
	TILELOAD_PA_4        \
	TILELOAD_B0_5        \
	TDPBUUD_0_4_5        \
	CMPQ nt-16(SP), $2   \
	JLT  done            \
	TILELOAD_B1_6        \
	TDPBUUD_1_4_6        \
	CMPQ nt-16(SP), $3   \
	JLT  done            \
	TILELOAD_B2_5        \
	TDPBUUD_2_4_5        \
	CMPQ nt-16(SP), $4   \
	JLT  done            \
	TILELOAD_B3_6        \
	TDPBUUD_3_4_6        \
done: \
	PNEXT(nopf)

// PSPILL stores the finished group's ntp accumulators, 1 KiB apart at BX.
#define PSPILL(done) \
	TILESTORE_0          \
	CMPQ ntp-80(SP), $2  \
	JLT  done            \
	TILESTORE_1          \
	CMPQ ntp-80(SP), $3  \
	JLT  done            \
	TILESTORE_2          \
	CMPQ ntp-80(SP), $4  \
	JLT  done            \
	TILESTORE_3          \
done:

// PFOLD adds the finished group's stored accumulators into the answers'
// ntp·16 lanes from byte offset fo, under mask K1: ans[q] += row q + row
// nq+q << 8 + row 2nq+q << 16 + row 3nq+q << 24 of each lane tile's
// accumulator. Clobbers AX, CX, DI, R12, R13, R15.
#define PFOLD(qloop, tloop) \
	MOVQ ans+56(FP), R13      \
	MOVQ BX, AX               \
	MOVQ ps-24(SP), R12       \
qloop: \
	MOVQ (R13), DI            \
	ADDQ fo-88(SP), DI        \
	MOVQ AX, CX               \
	MOVQ ntp-80(SP), R15      \
	MOVQ R15, tc-56(SP)       \
tloop: \
	LEAQ (CX)(R12*2), R15     \
	VMOVDQU32 (CX), Z0        \
	VPSLLD $8, (CX)(R12*1), Z1  \
	VPSLLD $16, (R15), Z2     \
	VPSLLD $24, (R15)(R12*1), Z3 \
	VPADDD Z1, Z0, Z0         \
	VPADDD Z3, Z2, Z2         \
	VPADDD Z2, Z0, Z0         \
	VPADDD (DI), Z0, K1, Z0   \
	VMOVDQU32 Z0, K1, (DI)    \
	ADDQ $1024, CX            \
	ADDQ $64, DI              \
	DECQ tc-56(SP)            \
	JNZ  tloop                \
	ADDQ $64, AX              \
	ADDQ $24, R13             \
	CMPQ AX, cend-48(SP)      \
	JNE  qloop

// bswap32: the VPSHUFB control that reverses the bytes of every dword.
DATA bswap32<>+0(SB)/8, $0x0405060700010203
DATA bswap32<>+8(SB)/8, $0x0c0d0e0f08090a0b
GLOBL bswap32<>(SB), RODATA|NOPTR, $16

// func amxAccPanel(cfg *[2][64]byte, a, c *amxPlanes, tab *uint32, stride, steps, lanes int, ans, leaves *[]uint32, leafOff, nq int, pf *uint32)
//
// One row panel — 16·steps table rows starting at tab, stride bytes apart
// — for the nq ≤ 16 queries whose answer and leaf slice headers start at
// ans and leaves; leafOff indexes the panel's first row in each leaf
// slice. The lanes are walked in 16-lane tiles. The first tile converts
// leaf shares to planes as it goes, one step ahead of the step that
// multiplies them (ZMM work under the tile unit's), into the ring at a;
// later tiles re-read the ring, so a panel of more than one lane tile has
// at most amxRingSteps steps, while a one-tile panel may be any length —
// its accumulators never leave the tile registers. Each further tile
// spills its predecessor's accumulators inside its own first step
// (SPILLSTEP) and folds them into the answers right after; the last tile
// is spilled and folded at the end. cfg[0] shapes the tiles for a whole
// lane tile, cfg[1] for the last lanes%16 lanes, which are loaded,
// multiplied and stored as a narrower tile: nothing past lane lanes−1 is
// read or written. Tile state is configured and released inside the call.
//
// BX c, DX tab, SI stride, R8 a, R9 64, R10 lanes to do, R11 prefetch
// cursor, R14 byte offset of the lane tile, CX / R15 table and plane
// cursors, Z4 bswap32, K1 the lane mask; AX, DI, R12, R13 scratch. cnt
// counts the first tile's steps, loff is the byte offset in the leaf
// slices of the next step to convert.
TEXT ·amxAccPanel(SB), NOSPLIT, $16-96
	MOVQ cfg+0(FP), AX
	MOVQ a+8(FP), R8
	MOVQ c+16(FP), BX
	MOVQ tab+24(FP), DX
	MOVQ stride+32(FP), SI
	MOVQ lanes+48(FP), R10
	MOVQ pf+88(FP), R11
	MOVQ leafOff+72(FP), R13
	SHLQ $2, R13
	MOVQ R13, loff-16(SP)
	MOVQ steps+40(FP), R13
	MOVQ R13, cnt-8(SP)
	VBROADCASTI32X4 bswap32<>(SB), Z4
	MOVQ $64, R9
	XORQ R14, R14
	MOVQ $0xffff, R13
	KMOVW R13, K1
	LDTILECFG_AX
	CMPQ R10, $16
	JGE  head
tail:
	// The last lanes%16 lanes: a narrower configuration (loading it also
	// zeroes the accumulators) and lane mask. After whole tiles the planes
	// are in the ring and the steps run plain; a row narrower than one
	// tile is its own first tile.
	MOVQ cfg+0(FP), AX
	LDTILECFG_64AX
	MOVQ R10, CX
	MOVQ $1, R13
	SHLQ CX, R13
	DECQ R13
	KMOVW R13, K1
	TESTQ R14, R14
	JZ   head
	MOVQ R8, R15
	LEAQ (DX)(R14*1), CX
	MOVQ steps+40(FP), R13
	JMP  step
head:
	// First lane tile: planes of step t+1 are written before step t runs.
	MOVQ R8, R15
	MOVQ DX, CX
	MOVQ R8, DI
	PLANES(planes0)
headstep:
	DECQ cnt-8(SP)
	JZ   headlast
	LEAQ 4096(R15), DI
	LEAQ amxRingBytes(R8), AX
	CMPQ DI, AX
	CMOVQEQ R8, DI
	PLANES(planes1)
	STEP
	JMP  headstep
headlast:
	STEP
	JMP  next
full:
	MOVQ R8, R15
	LEAQ (DX)(R14*1), CX
	SPILLSTEP
	FOLD(foldprev)
	MOVQ steps+40(FP), R13
	DECQ R13
	JZ   next
step:
	STEP
	DECQ R13
	JNZ  step
next:
	ADDQ $64, R14
	SUBQ $16, R10
	CMPQ R10, $16
	JGE  full
	SPILL
	FOLD(foldlast)
	TESTQ R10, R10
	JG   tail
	TILERELEASE
	VZEROUPPER
	RET

// func amxAccPacked(cfg *[2][64]byte, a, c *amxPlanes, tab *uint32, stride, steps, lanes int, ans, leaves *[]uint32, leafOff, nq int, pf *uint32, pfs int)
//
// amxAccPanel for nq ≤ 4 queries on packed A tiles. The lanes are walked in
// groups of up to four 16-lane tiles; the first group converts the planes
// one step ahead of the step that multiplies them into the ring at a
// (1 KiB a step), later groups re-read it, so a panel of more than one
// group has at most 4·amxRingSteps steps. A group's accumulators are
// stored to c by the next group's first step, each just before its first
// TDPBUUD there, and folded into the answers after that step; the last
// whole group's and the tail's are stored and folded at their end. cfg[0]
// shapes the tiles for whole lane tiles, cfg[1] for the last lanes%16
// lanes, their own last group. Each step prefetches at pf, which moves
// pfs bytes a step (pfs = 0: no prefetch).
//
// BX c, DX tab, SI stride, R8 a, R9 64, R10 lanes to do, R11 prefetch
// cursor, R14 byte offset of the lane group, CX / R15 table and plane
// cursors, Z4 bswap32, K1 the lane mask; AX, DI, R12, R13 scratch. Locals:
// loff the byte offset in the leaf slices of the next step to convert, nt
// the group's lane tiles, ps the plane stride 64·nq, lend and cend the
// ends of the leaf headers and of the accumulator rows of plane 0, cnt
// and tc loop counts, left and cv the steps still to convert and the ring
// slot of the next, ntp and fo the finished group's lane tiles and lane
// byte offset, scx and sr15 CX and R15 across a fold.
TEXT ·amxAccPacked(SB), NOSPLIT, $104-104
	MOVQ cfg+0(FP), AX
	MOVQ a+8(FP), R8
	MOVQ c+16(FP), BX
	MOVQ tab+24(FP), DX
	MOVQ stride+32(FP), SI
	MOVQ lanes+48(FP), R10
	MOVQ pf+88(FP), R11
	MOVQ leafOff+72(FP), R13
	SHLQ $2, R13
	MOVQ R13, loff-8(SP)
	MOVQ nq+80(FP), R13
	SHLQ $6, R13
	MOVQ R13, ps-24(SP)
	ADDQ BX, R13
	MOVQ R13, cend-48(SP)
	MOVQ nq+80(FP), R13
	LEAQ (R13)(R13*2), R13
	SHLQ $3, R13
	ADDQ leaves+64(FP), R13
	MOVQ R13, lend-32(SP)
	VBROADCASTI32X4 bswap32<>(SB), Z4
	MOVQ $64, R9
	XORQ R14, R14
	MOVQ $0xffff, R13
	KMOVW R13, K1
	LDTILECFG_AX
	CMPQ R10, $16
	JLT  ptail
	MOVQ R10, R13
	SHRQ $4, R13
	MOVQ $4, AX
	CMPQ R13, AX
	CMOVQGT AX, R13
	MOVQ R13, nt-16(SP)
phead:
	// First group: the planes of step t+1 are written before step t runs.
	MOVQ steps+40(FP), R13
	MOVQ R13, cnt-40(SP)
	MOVQ R13, left-64(SP)
	MOVQ R8, cv-72(SP)
	MOVQ R8, R15
	MOVQ DX, CX
	CONVERT(pc0, pcl0)
pheadstep:
	CONVERT(pc1, pcl1)
	PSTEP(phs, phsn)
	DECQ cnt-40(SP)
	JNZ  pheadstep
pgdone:
	// The finished group is folded by the next one after its first step,
	// or here when it is the last whole group or the tail.
	MOVQ nt-16(SP), R13
	MOVQ R13, ntp-80(SP)
	MOVQ R14, fo-88(SP)
	SHLQ $6, R13
	ADDQ R13, R14
	SHRQ $2, R13
	SUBQ R13, R10
	CMPQ R10, $16
	JLT  plast
	MOVQ R10, R13
	SHRQ $4, R13
	MOVQ $4, AX
	CMPQ R13, AX
	CMOVQGT AX, R13
	MOVQ R13, nt-16(SP)
	MOVQ R8, R15
	LEAQ (DX)(R14*1), CX
	// First step: each accumulator is stored and zeroed just before its
	// first TDPBUUD, so the finished group's last products drain under
	// this group's first ones; accumulators this group leaves idle are
	// stored after it.
	TILELOAD_PA_4
	TILESTORE_0
	TILEZERO_0
	TILELOAD_B0_5
	TDPBUUD_0_4_5
	CMPQ R13, $2
	JLT  pidle
	TILESTORE_1
	TILEZERO_1
	TILELOAD_B1_6
	TDPBUUD_1_4_6
	CMPQ R13, $3
	JLT  pidle
	TILESTORE_2
	TILEZERO_2
	TILELOAD_B2_5
	TDPBUUD_2_4_5
	CMPQ R13, $4
	JLT  pidle
	TILESTORE_3
	TILEZERO_3
	TILELOAD_B3_6
	TDPBUUD_3_4_6
	JMP  pfirst
pidle:
	CMPQ ntp-80(SP), $2
	JLT  pfirst
	CMPQ R13, $2
	JGE  pidle2
	TILESTORE_1
pidle2:
	CMPQ ntp-80(SP), $3
	JLT  pfirst
	CMPQ R13, $3
	JGE  pidle3
	TILESTORE_2
pidle3:
	CMPQ ntp-80(SP), $4
	JLT  pfirst
	TILESTORE_3
pfirst:
	PNEXT(pfirstn)
	MOVQ CX, scx-96(SP)
	MOVQ R15, sr15-104(SP)
	PFOLD(pfq0, pft0)
	MOVQ scx-96(SP), CX
	MOVQ sr15-104(SP), R15
	MOVQ steps+40(FP), R13
	DECQ R13
	JZ   pgdone
pgstep:
	PSTEP(pgs, pgsn)
	DECQ R13
	JNZ  pgstep
	JMP  pgdone
plast:
	PSPILL(psp)
	PFOLD(pfq1, pft1)
	TESTQ R10, R10
	JG   ptail
	TILERELEASE
	VZEROUPPER
	RET
ptail:
	// The last lanes%16 lanes: a narrower configuration (loading it also
	// zeroes the accumulators), lane mask and one lane tile. A row
	// narrower than one tile is its own first group.
	MOVQ cfg+0(FP), AX
	LDTILECFG_64AX
	MOVQ R10, CX
	MOVQ $1, R13
	SHLQ CX, R13
	DECQ R13
	KMOVW R13, K1
	MOVQ $1, nt-16(SP)
	TESTQ R14, R14
	JZ   phead
	MOVQ R8, R15
	LEAQ (DX)(R14*1), CX
	MOVQ steps+40(FP), R13
	JMP  pgstep
