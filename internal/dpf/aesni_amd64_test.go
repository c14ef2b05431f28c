//go:build amd64 && !purego

package dpf

import (
	"testing"

	"gpudpf/internal/cpufeat"
)

// TestAESKernelTiersMatchStdlib pins each compiled asm tier — not just the
// one this host's dispatch would pick — to G built from crypto/aes over
// every frontier length's block/tail split. A tier the CPU lacks is
// skipped by name, so a CI log shows which kernels were actually
// exercised.
func TestAESKernelTiersMatchStdlib(t *testing.T) {
	t.Run("aesni4", func(t *testing.T) {
		if !cpufeat.AESNI {
			t.Skip("CPUID.1:ECX.AES (bit 25) not set")
		}
		checkAESExpandMatchesStdlib(t, func(out, seeds []Seed) { aesniExpandTier(out, seeds, false) })
	})
	t.Run("vaes16", func(t *testing.T) {
		switch {
		case !aesniOK:
			t.Skip("no AES-NI for the tail kernel")
		case !cpufeat.AVX512BW:
			t.Skip("CPUID.7.0:EBX.AVX512F/BW (bits 16, 30) not set, or ZMM state not OS-enabled")
		case !cpufeat.VAES:
			t.Skip("CPUID.7.0:ECX.VAES (bit 9) not set")
		}
		checkAESExpandMatchesStdlib(t, func(out, seeds []Seed) { aesniExpandTier(out, seeds, true) })
	})
}

// TestAESKernelFusedTiersMatchOracle is TestAESKernelTiersMatchStdlib for
// the fused step and leaf kernels: each compiled tier against the two-pass
// definition.
func TestAESKernelFusedTiersMatchOracle(t *testing.T) {
	tier := func(wide bool) func(*testing.T) {
		return func(t *testing.T) {
			switch {
			case !cpufeat.AESNI:
				t.Skip("CPUID.1:ECX.AES (bit 25) not set")
			case wide && !cpufeat.AVX512BW:
				t.Skip("CPUID.7.0:EBX.AVX512F/BW (bits 16, 30) not set, or ZMM state not OS-enabled")
			case wide && !cpufeat.VAES:
				t.Skip("CPUID.7.0:ECX.VAES (bit 9) not set")
			}
			checkAESFusedMatchesOracle(t,
				func(next []Seed, nextT []uint8, seeds []Seed, ts []uint8, cw *CW) {
					aesniStepTier(next, nextT, seeds, ts, cw, wide)
				},
				func(k *Key, seeds []Seed, ts []uint8, cw *CW, dst []uint32) {
					aesniLeafTier(k, seeds, ts, cw, dst, wide)
				})
		}
	}
	t.Run("aesni4", tier(false))
	t.Run("vaes16", tier(true))
}

// TestScalarExpandAllocs: the scalar Expand (Gen, EvalRange's walk)
// rides the batch expansion and must not touch the heap — the crypto/aes
// body it replaced cost 4 allocations per node.
func TestScalarExpandAllocs(t *testing.T) {
	prg := NewAESPRG()
	var s Seed
	if allocs := testing.AllocsPerRun(100, func() { s, _, _, _ = prg.Expand(s) }); allocs != 0 {
		t.Errorf("AESPRG.Expand allocates %.1f/call, want 0", allocs)
	}
}

// BenchmarkAESFusedTiers runs the bare expansion and the fused frontier
// and leaf steps of each compiled tier on BenchmarkStepBothBatch128's
// 128-wide frontier, so the narrower tier's cost is on record from a host
// that dispatches to the wider one.
func BenchmarkAESFusedTiers(b *testing.B) {
	k, cw, seeds, ts := benchFrontier(b)
	next := make([]Seed, 256)
	nextT := make([]uint8, 256)
	dst := make([]uint32, 8*128)
	kids := make([]Seed, 256)
	for _, tier := range []struct {
		name string
		ok   bool
	}{{"aesni4", aesniOK}, {"vaes16", vaesOK}} {
		if !tier.ok {
			continue
		}
		wide := tier.name == "vaes16"
		b.Run(tier.name+"/expand", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				aesniExpandTier(kids, seeds, wide)
			}
			reportNsPerNode(b, 128)
		})
		b.Run(tier.name+"/step", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				aesniStepTier(next, nextT, seeds, ts, &cw, wide)
			}
			reportNsPerNode(b, 128)
		})
		b.Run(tier.name+"/leaf", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				aesniLeafTier(&k, seeds, ts, &cw, dst, wide)
			}
			reportNsPerNode(b, 128)
		})
	}
}
