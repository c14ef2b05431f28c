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

func aesniStepNodes(next []Seed, nextT []uint8, seeds []Seed, ts []uint8, cw *CW) {
	panic("dpf: aesniStepNodes without AES-NI")
}

func aesniLeafNodes(k *Key, seeds []Seed, ts []uint8, cw *CW, dst []uint32) {
	panic("dpf: aesniLeafNodes without AES-NI")
}
