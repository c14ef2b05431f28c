package dpf

import "fmt"

// PRG is the pseudorandom generator that drives the GGM tree. One Expand
// call derives both children of a node (256 bits of output); the embedded
// control bits are taken from — and then cleared in — the low bit of each
// child seed, the standard Boyle–Gilboa–Ishai packing.
//
// This build computes one PRF, aes128 (NewPRG); PRG stays an interface so
// tests can substitute decorated or foreign-construction fakes. What a PRF
// would cost on the paper's GPU and CPU is the reproduction's business
// (internal/model), not this one's.
type PRG interface {
	// Name identifies the PRF on the wire hello and in reports ("aes128").
	Name() string
	// Construction names the exact function behind Name: two builds that
	// agree on a name but compute different functions under it differ
	// here, so the wire hello refuses the pairing instead of letting keys
	// of one evaluate to garbage shares on the other.
	Construction() uint32
	// Expand derives the left and right child seeds and control bits.
	Expand(s Seed) (left, right Seed, tL, tR uint8)
	// ExpandBatch derives children for a whole frontier in one call:
	// for every i, (left[i], right[i], tL[i], tR[i]) = Expand(seeds[i]).
	// All five slices must have len(seeds). Implementations hoist per-call
	// state — key schedules, cipher state — out of the
	// per-node loop so advancing a K-wide frontier performs zero heap
	// allocations.
	ExpandBatch(seeds []Seed, left, right []Seed, tL, tR []uint8)
}

// ConstructionAES128 is aes128's construction ID. A new function under an
// existing name takes a new ID: this is the fixed-key MMO^σ hash (aes128's
// generation 2; generation 1, 0xae5_0001, ran a fresh key schedule per
// node).
const ConstructionAES128 uint32 = 0xae5_0002

// ConstructionOf is the construction this build computes under a PRF
// name, or 0 for a name it does not know.
func ConstructionOf(name string) uint32 {
	prg, err := NewPRG(name)
	if err != nil {
		return 0
	}
	return prg.Construction()
}

// BlocksPerExpand is the number of 128-bit PRF blocks one Expand consumes.
// The paper counts "one PRF call per node child"; an Expand derives both
// children, hence two blocks.
const BlocksPerExpand = 2

// PRGName is the one PRF this build computes: the name every key, server
// and wire hello carries.
const PRGName = "aes128"

// NewPRG constructs the PRG named name. Only PRGName is served; any other
// name is refused, by name.
func NewPRG(name string) (PRG, error) {
	if name != PRGName {
		return nil, fmt.Errorf("dpf: unknown PRG %q (this build computes only %s)", name, PRGName)
	}
	return NewAESPRG(), nil
}

// clearControlBits extracts the control bits from the low bit of byte 0 of
// each child and zeroes them so the seed space stays 127 bits + bit.
func clearControlBits(l, r *Seed) (tL, tR uint8) {
	tL = l[0] & 1
	tR = r[0] & 1
	l[0] &^= 1
	r[0] &^= 1
	return
}
