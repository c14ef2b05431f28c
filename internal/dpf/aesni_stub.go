//go:build !amd64 || purego

package dpf

// Non-amd64 builds (and -tags purego) take the pure-Go T-table AES path.

const aesniOK = false

// AESKernel names the AES-128 PRG's node-expansion implementation; see
// aesni_amd64.go for the hardware tiers.
func AESKernel() string { return "purego" }

func aesniExpandNodes(out, seeds []Seed) {
	panic("dpf: aesniExpandNodes without AES-NI")
}
