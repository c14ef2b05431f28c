//go:build !amd64 || purego

package cpufeat

// Non-amd64 builds (and -tags purego) have no asm kernels to select.
const (
	AESNI      = false
	AVX2       = false
	VAES       = false
	AVX512BW   = false
	AVX512IFMA = false
	AMXInt8    = false
)
