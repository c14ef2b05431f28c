package model

import (
	"fmt"

	"gpudpf/internal/dpf"
)

// PRF is a pseudorandom function as the models price it (§3.2.6: PRF choice
// dominates GPU DPF performance because GPUs lack AES hardware). Only
// AES128 is computed anywhere in this repository (dpf.PRGName); the other
// entries of PRFs are the paper's Table 5 comparison, kept as constants.
type PRF struct {
	// Name identifies the PRF in reports ("aes128", "chacha20", ...).
	Name string
	// GPUCyclesPerBlock is the modeled cycle cost of one 128-bit output
	// block on a single GPU thread (software implementation, no crypto
	// hardware).
	GPUCyclesPerBlock float64
	// CPUCyclesPerBlock is the modeled cycle cost of one 128-bit output
	// block on one Xeon core, using hardware intrinsics where they exist
	// (AES-NI, SHA-NI, AVX2).
	CPUCyclesPerBlock float64
}

// AES128 is the PRF the serving stack computes. Its GPU cost is calibrated
// so the V100 model reproduces the paper's Table 4 AES-128 throughput
// (≈1.4k QPS on a 1M-entry table): software table-free AES on a GPU thread
// costs thousands of cycles per block, with no AES-NI equivalent on the
// SMs. Its CPU cost is calibrated to Table 4's Xeon row, 638 ms
// single-threaded on a 1M-entry table = 1.34e9 cycles over ~2.1e6 blocks,
// i.e. ~640 cycles per block of that library's whole per-node cost (key
// schedule, tree bookkeeping, memory traffic). dpf's kernels spend a few
// cycles per block; the constant stays at the paper's figure so the models
// keep reproducing Table 4.
var AES128 = PRF{Name: dpf.PRGName, GPUCyclesPerBlock: 2500, CPUCyclesPerBlock: 640}

// PRFs is Table 5's comparison, in its order. The GPU costs keep its QPS
// ratios to AES-128 (sha256 slightly slower, chacha20 ~3.8×, siphash
// ~7.7× — one siphash "block" is two 64-bit outputs — and highway ~2×
// faster); on the CPU, vectorized ChaCha and HighwayHash ride AVX2 but
// ChaCha stays slower per block than AES-NI's would be.
var PRFs = []PRF{
	AES128,
	{Name: "sha256", GPUCyclesPerBlock: 2620, CPUCyclesPerBlock: 520},
	{Name: "chacha20", GPUCyclesPerBlock: 663, CPUCyclesPerBlock: 420},
	{Name: "siphash", GPUCyclesPerBlock: 324, CPUCyclesPerBlock: 130},
	{Name: "highway", GPUCyclesPerBlock: 1224, CPUCyclesPerBlock: 160},
}

// LookupPRF returns the PRFs entry named name.
func LookupPRF(name string) (PRF, error) {
	for _, p := range PRFs {
		if p.Name == name {
			return p, nil
		}
	}
	return PRF{}, fmt.Errorf("model: unknown PRF %q", name)
}
