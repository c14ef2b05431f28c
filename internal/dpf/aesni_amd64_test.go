//go:build amd64 && !purego

package dpf

import (
	"testing"

	"gpudpf/internal/cpufeat"
)

// TestAESKernelTiersMatchStdlib pins each compiled asm tier — not just the
// one this host's dispatch would pick — to crypto/aes over every frontier
// length's block/tail split. A tier the CPU lacks is skipped by name, so
// a CI log shows which kernels were actually exercised.
func TestAESKernelTiersMatchStdlib(t *testing.T) {
	t.Run("aesni4", func(t *testing.T) {
		switch {
		case !cpufeat.AESNI:
			t.Skip("CPUID.1:ECX.AES (bit 25) not set")
		case !cpufeat.SSSE3:
			t.Skip("CPUID.1:ECX.SSSE3 (bit 9) not set")
		}
		checkAESExpandMatchesStdlib(t, func(out, seeds []Seed) { aesniExpandTier(out, seeds, false) })
	})
	t.Run("vaes16", func(t *testing.T) {
		switch {
		case !aesniOK:
			t.Skip("no AES-NI+SSSE3 for the tail kernel")
		case !cpufeat.AVX512BW:
			t.Skip("CPUID.7.0:EBX.AVX512F/BW (bits 16, 30) not set, or ZMM state not OS-enabled")
		case !cpufeat.VAES:
			t.Skip("CPUID.7.0:ECX.VAES (bit 9) not set")
		}
		checkAESExpandMatchesStdlib(t, func(out, seeds []Seed) { aesniExpandTier(out, seeds, true) })
	})
}

// TestScalarExpandAllocs: with hardware AES the scalar Expand (Gen,
// EvalAt, the range walk) rides the batch kernel and must not touch the
// heap — the crypto/aes body it replaced cost 4 allocations per node.
func TestScalarExpandAllocs(t *testing.T) {
	if !aesniOK {
		t.Skip("no AES-NI+SSSE3: Expand takes the crypto/aes body")
	}
	prg := NewAESPRG()
	var s Seed
	if allocs := testing.AllocsPerRun(100, func() { s, _, _, _ = prg.Expand(s) }); allocs != 0 {
		t.Errorf("AESPRG.Expand allocates %.1f/call, want 0", allocs)
	}
}
