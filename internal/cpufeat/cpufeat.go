// Package cpufeat is the repository's one CPU-feature probe. The asm
// kernels (dpf's AES-NI / VAES GGM expansion, strategy's AVX2 / AVX-512 /
// AMX accumulate) are selected at package init from these booleans, so "is
// the instruction usable here" — the CPUID bit, for anything touching YMM,
// ZMM or tile registers the OS having enabled that state in XCR0, and for
// tile data Linux having granted the process its use — is decided in
// exactly one place. Non-amd64 builds and -tags purego see
// every feature as a compile-time false, which folds the dispatch
// branches away.
package cpufeat
