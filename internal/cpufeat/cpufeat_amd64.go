//go:build amd64 && !purego

package cpufeat

// cpuid executes CPUID with the given leaf and sub-leaf. Implemented in
// cpufeat_amd64.s.
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads the low half of XCR0 (every state bit defined so far).
// Only valid when CPUID.1:ECX.OSXSAVE is set. Implemented in
// cpufeat_amd64.s.
func xgetbv0() uint32

// Feature bits of the running CPU. The wide-register features are true
// only if the OS also saves that register state across context switches
// (XCR0): YMM for AVX2 and VAES, opmask+ZMM on top for AVX512BW.
var (
	// AESNI: AESENC / AESENCLAST on XMM registers.
	AESNI bool
	// AVX2: 256-bit integer SIMD, OS-enabled.
	AVX2 bool
	// VAES: AESENC / AESENCLAST on registers wider than XMM — YMM as is,
	// ZMM together with AVX512BW.
	VAES bool
	// AVX512BW: AVX-512 foundation plus the byte/word instructions
	// (word permutes and byte unpacks on ZMM registers), OS-enabled.
	AVX512BW bool
	// AVX512IFMA: AVX-512 foundation plus the 52-bit integer multiply-add
	// (VPMADD52LUQ / VPMADD52HUQ), OS-enabled.
	AVX512IFMA bool
	// AMXInt8: the tile unit with its u8×u8→int32 dot product (TDPBUUD),
	// usable by this process — CPUID's AMX-TILE and AMX-INT8 bits, tile
	// config+data state enabled in XCR0, the OS having granted the process
	// permission to use tile data (requestTileData), and AVX512BW for the
	// ZMM code around the tile loop.
	AMXInt8 bool
)

func init() {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 1 {
		return
	}
	_, _, ecx1, _ := cpuid(1, 0)
	AESNI = ecx1&(1<<25) != 0

	// YMM instructions need three things, not one: the CPU reports
	// OSXSAVE+AVX, the OS has enabled XMM+YMM state saving (XCR0 bits 2:1),
	// and only then do the leaf-7 bits mean the instructions are usable.
	const osxsaveAVX = 1<<27 | 1<<28
	if ecx1&osxsaveAVX != osxsaveAVX || maxLeaf < 7 {
		return
	}
	xcr0 := xgetbv0()
	if xcr0&6 != 6 {
		return
	}
	_, ebx7, ecx7, edx7 := cpuid(7, 0)
	AVX2 = ebx7&(1<<5) != 0
	VAES = ecx7&(1<<9) != 0
	// ZMM state is three more XCR0 bits: opmask, ZMM0-15 upper halves,
	// ZMM16-31.
	const avx512fBW = 1<<16 | 1<<30
	AVX512BW = xcr0&0xe0 == 0xe0 && ebx7&avx512fBW == avx512fBW
	const avx512fIFMA = 1<<16 | 1<<21
	AVX512IFMA = xcr0&0xe0 == 0xe0 && ebx7&avx512fIFMA == avx512fIFMA
	// Tile state is XCR0 bits 17 (config) and 18 (data). The permission
	// request comes last: it is the one step with a side effect.
	const amxTileInt8 = 1<<24 | 1<<25
	AMXInt8 = AVX512BW && edx7&amxTileInt8 == amxTileInt8 && xcr0&(3<<17) == 3<<17 && requestTileData()
}
