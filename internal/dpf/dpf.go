// Package dpf implements distributed point functions (DPFs) for two-server
// private information retrieval.
//
// A DPF lets a client split a point function f_{α,β} (which is β at index α
// and zero everywhere else) into two compact keys. Each key individually
// reveals nothing about α, yet the two parties' evaluations add up (mod 2^32,
// lane-wise) to β at α and to zero elsewhere. This is the construction of
// Boyle, Gilboa and Ishai ("Function Secret Sharing", 2015), the same
// optimal-asymptotics algorithm accelerated by the paper: O(λ·log L)
// communication and O(λ·L) evaluation work, one PRF call per tree node.
//
// The output group is Z_2^32 per lane; a table row of D bytes is D/4 lanes.
// PIR uses a scalar DPF (one lane, β = 1) whose full-domain expansion is a
// secret-shared one-hot vector that the server multiplies against the table.
package dpf

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Seed is a 128-bit PRG seed (λ = 128, matching the paper's security
// parameter).
type Seed [16]byte

// MaxBits is the largest supported tree depth. 2^40 entries is far beyond
// any embedding table in the paper (Criteo 1TB has 2^32).
const MaxBits = 40

// CW is a per-level correction word. The low bits TL and TR correct the
// control bits of the left and right children; S corrects the seed on the
// "lose" path so that the two parties' seeds collapse to equality off the
// special path.
type CW struct {
	S  Seed
	TL uint8
	TR uint8
}

// MaxEarlyBits is the deepest supported early termination: ⌈log₂(λ/w)⌉
// levels for λ = 128 and w = 32, i.e. one 128-bit terminal seed holds at
// most four 32-bit output lanes without extra PRF calls. It is also the
// depth Gen uses by default for scalar keys: stopping there and
// converting each terminal seed into four output lanes (paper §3.1) cuts
// the PRF work of a full expansion ~4×.
const MaxEarlyBits = 2

// DefaultEarly clamps MaxEarlyBits to what a key of the given tree
// depth and lane count supports: the terminal group (lanes << early 32-bit
// words) must fit the 128-bit seed, and at least one tree level must
// remain. Wide-beta keys (lanes > 2) therefore get no early termination;
// scalar PIR keys get the full 2 levels whenever bits ≥ 3. A table of
// rows serves keys of depth DefaultEarly(DomainBits(rows), 1): every
// serving layer derives the depth so, and none takes it as a setting.
func DefaultEarly(bits, lanes int) int {
	early := MaxEarlyBits
	for early > 0 && lanes<<uint(early) > 4 {
		early--
	}
	return max(min(early, bits-1), 0)
}

// DomainBits returns the DPF tree depth covering a domain of rows
// entries: ⌈log₂(rows)⌉, minimum 1. Every layer that derives a tree depth
// from a row count (strategy.Table.Bits, pir.Client, the cluster front's
// key validation) must round through this one function — two layers
// disagreeing on the convention would turn a loud key rejection into
// accepted-then-garbage shares.
func DomainBits(rows int) int {
	bits := 1
	for 1<<uint(bits) < rows {
		bits++
	}
	return bits
}

// Key is one party's share of a point function. A Key alone is
// computationally indistinguishable from a key for any other index.
type Key struct {
	// Bits is the tree depth n; the domain is [0, 2^Bits).
	Bits int
	// Lanes is the number of 32-bit output lanes per leaf (entry bytes/4).
	Lanes int
	// Early is the early-termination depth (§3.1): the tree walk stops
	// Early levels above the leaves, and each terminal seed converts into
	// the outputs of 2^Early consecutive leaves. 0 is the legacy full-depth
	// walk (wire format v1); Early > 0 keys marshal as wire format v3.
	Early int
	// Wire is the wire format version MarshalBinary emits. 0 picks the
	// served one (v1 at full depth, v3 early-terminated); UnmarshalBinary
	// records the version it parsed, so a key re-marshals to its own bytes.
	Wire int
	// Party is 0 or 1; party 1 negates its outputs so shares are additive.
	Party uint8
	// Root is this party's root seed.
	Root Seed
	// CWs holds one correction word per walked level (Bits - Early of
	// them), root to terminal nodes.
	CWs []CW
	// Final is the output-group correction applied at terminal nodes with
	// control bit 1; it spans the whole terminal group (Lanes << Early
	// lanes, the 2^Early leaves' outputs concatenated in leaf order).
	Final []uint32
}

// Domain returns the number of leaves 2^Bits.
func (k *Key) Domain() uint64 { return 1 << uint(k.Bits) }

// TreeDepth is the number of levels the evaluation tree actually walks:
// Bits - Early correction words from the root to the terminal frontier.
func (k *Key) TreeDepth() int { return k.Bits - k.Early }

// GroupSize is the number of consecutive leaves one terminal seed covers.
func (k *Key) GroupSize() int { return 1 << uint(k.Early) }

// GroupLanes is the number of 32-bit output lanes one terminal seed
// converts into: the group's leaves' lanes concatenated in leaf order.
func (k *Key) GroupLanes() int { return k.Lanes << uint(k.Early) }

// Gen generates a DPF key pair for the point function that evaluates to beta
// at index alpha and to zero elsewhere over a domain of 2^bits indices.
// Randomness is drawn from rng (use crypto/rand.Reader in production).
// Keys use the default early-termination depth (DefaultEarly): scalar keys
// stop the tree walk 2 levels early and convert each terminal seed into
// four output lanes, the §3.1 optimisation. Use GenEarly for an explicit
// depth (0 reproduces the legacy full-depth v1 keys).
func Gen(prg PRG, alpha uint64, bits int, beta []uint32, rng io.Reader) (k0, k1 Key, err error) {
	return GenEarly(prg, alpha, bits, beta, DefaultEarly(bits, len(beta)), rng)
}

// GenEarly is Gen with an explicit early-termination depth: the generated
// keys walk bits-early tree levels and convert each 128-bit terminal seed
// into the outputs of 2^early consecutive leaves. early must leave at
// least one tree level and the terminal group (len(beta) << early lanes)
// must fit the seed's four 32-bit words; early = 0 generates legacy
// full-depth (wire format v1) keys.
func GenEarly(prg PRG, alpha uint64, bits int, beta []uint32, early int, rng io.Reader) (k0, k1 Key, err error) {
	if bits <= 0 || bits > MaxBits {
		return k0, k1, fmt.Errorf("dpf: bits %d out of range [1,%d]", bits, MaxBits)
	}
	if alpha >= 1<<uint(bits) {
		return k0, k1, fmt.Errorf("dpf: alpha %d outside domain 2^%d", alpha, bits)
	}
	if len(beta) == 0 {
		return k0, k1, errors.New("dpf: beta must have at least one lane")
	}
	if early < 0 || early > MaxEarlyBits {
		return k0, k1, fmt.Errorf("dpf: early-termination depth %d out of range [0,%d]", early, MaxEarlyBits)
	}
	if early >= bits {
		return k0, k1, fmt.Errorf("dpf: early-termination depth %d leaves no tree levels for %d bits", early, bits)
	}
	// An early-terminated group must convert straight from the seed's four
	// 32-bit words; full-depth keys may be arbitrarily wide (Convert draws
	// extra PRG blocks beyond 4 lanes).
	if g := len(beta) << uint(early); early > 0 && g > 4 {
		return k0, k1, fmt.Errorf("dpf: terminal group of %d lanes (%d beta lanes << %d) exceeds the 4 a 128-bit seed holds", g, len(beta), early)
	}
	var roots [2]Seed
	for b := 0; b < 2; b++ {
		if _, err := io.ReadFull(rng, roots[b][:]); err != nil {
			return k0, k1, fmt.Errorf("dpf: reading randomness: %w", err)
		}
	}
	depth := bits - early
	cws := make([]CW, depth)

	s := roots          // current seeds per party
	t := [2]uint8{0, 1} // current control bits per party

	for level := 0; level < depth; level++ {
		// Bit of alpha at this level, MSB first.
		aBit := uint8(alpha>>uint(bits-1-level)) & 1

		var child [2][2]Seed // [party][side]
		var ct [2][2]uint8   // [party][side]
		for b := 0; b < 2; b++ {
			l, r, tl, tr := prg.Expand(s[b])
			child[b][0], child[b][1] = l, r
			ct[b][0], ct[b][1] = tl, tr
		}

		keep, lose := aBit, 1-aBit
		var cw CW
		cw.S = xorSeed(child[0][lose], child[1][lose])
		cw.TL = ct[0][0] ^ ct[1][0] ^ aBit ^ 1
		cw.TR = ct[0][1] ^ ct[1][1] ^ aBit
		cws[level] = cw

		cwKeep := cw.TL
		if keep == 1 {
			cwKeep = cw.TR
		}
		for b := 0; b < 2; b++ {
			ns := child[b][keep]
			if t[b] == 1 {
				ns = xorSeed(ns, cw.S)
			}
			nt := ct[b][keep] ^ (t[b] & cwKeep)
			s[b], t[b] = ns, nt
		}
	}

	// Final correction word over the terminal group's output lanes:
	// final = (-1)^{t1} * (betaGroup - Convert(s0) + Convert(s1)) mod 2^32,
	// where betaGroup places beta at the group slot the low `early` bits of
	// alpha select and zeros elsewhere — the other leaves of alpha's
	// terminal group must still share to zero.
	lanes := len(beta)
	groupLanes := lanes << uint(early)
	betaGroup := make([]uint32, groupLanes)
	sub := int(alpha) & (1<<uint(early) - 1)
	copy(betaGroup[sub*lanes:(sub+1)*lanes], beta)
	c0 := Convert(prg, s[0], groupLanes)
	c1 := Convert(prg, s[1], groupLanes)
	final := make([]uint32, groupLanes)
	for i := range final {
		v := betaGroup[i] - c0[i] + c1[i]
		if t[1] == 1 {
			v = -v
		}
		final[i] = v
	}

	mk := func(party uint8) Key {
		cwCopy := make([]CW, len(cws))
		copy(cwCopy, cws)
		fCopy := make([]uint32, groupLanes)
		copy(fCopy, final)
		return Key{
			Bits:  bits,
			Lanes: lanes,
			Early: early,
			Party: party,
			Root:  roots[party],
			CWs:   cwCopy,
			Final: fCopy,
		}
	}
	return mk(0), mk(1), nil
}

// Step descends one level of the evaluation tree: given the node state
// (seed, control bit) and this level's correction word, it returns the state
// of the child selected by bit (0 = left, 1 = right). This is the primitive
// every execution strategy in internal/strategy is built from; it costs one
// PRF call per invoked side pair (the PRG expands both children at once, so
// strategies that need both children should use StepBoth).
func Step(prg PRG, s Seed, t uint8, cw CW, bit uint8) (Seed, uint8) {
	l, r, tl, tr := prg.Expand(s)
	if t == 1 {
		l = xorSeed(l, cw.S)
		r = xorSeed(r, cw.S)
		tl ^= cw.TL
		tr ^= cw.TR
	}
	if bit == 0 {
		return l, tl
	}
	return r, tr
}

// StepBoth expands a node into both children in one PRG call.
func StepBoth(prg PRG, s Seed, t uint8, cw CW) (ls Seed, lt uint8, rs Seed, rt uint8) {
	l, r, tl, tr := prg.Expand(s)
	if t == 1 {
		l = xorSeed(l, cw.S)
		r = xorSeed(r, cw.S)
		tl ^= cw.TL
		tr ^= cw.TR
	}
	return l, tl, r, tr
}

// BatchScratch holds the reusable child buffers the batched tree steps
// expand through. The zero value is ready to use; buffers grow on demand
// and are retained, so steady-state frontier advances allocate nothing.
type BatchScratch struct {
	left, right []Seed
	tl, tr      []uint8
}

func (b *BatchScratch) grow(n int) {
	if cap(b.left) < n {
		b.left = make([]Seed, n)
		b.right = make([]Seed, n)
		b.tl = make([]uint8, n)
		b.tr = make([]uint8, n)
	}
	b.left, b.right = b.left[:n], b.right[:n]
	b.tl, b.tr = b.tl[:n], b.tr[:n]
}

// StepBothBatch advances a whole frontier one level in a single ExpandBatch
// call: the nodes (seeds[i], ts[i]) all sit at the same depth and share the
// correction word cw, and their children land in leaf order — node i's left
// child at next[2i], its right child at next[2i+1]. next and nextT must
// have length 2·len(seeds) and must not alias seeds/ts (use ping-pong
// buffers). This is the K-wide step the paper's memory-bounded traversal
// performs per kernel iteration (§3.2.3), with the PRF state hoisted so the
// whole level costs zero allocations.
func StepBothBatch(prg PRG, seeds []Seed, ts []uint8, cw CW, next []Seed, nextT []uint8, sc *BatchScratch) {
	if a, ok := prg.(*AESPRG); ok {
		// The default PRF gets a fully fused step: child blocks are
		// encrypted straight into next and the correction word applied in
		// place, skipping the scratch round trip (measurably hot at K-wide
		// frontiers).
		a.stepBothBatch(seeds, ts, cw, next, nextT)
		return
	}
	n := len(seeds)
	sc.grow(n)
	prg.ExpandBatch(seeds, sc.left, sc.right, sc.tl, sc.tr)
	for i := 0; i < n; i++ {
		l, r := sc.left[i], sc.right[i]
		lt, rt := sc.tl[i], sc.tr[i]
		if ts[i] == 1 {
			l = xorSeed(l, cw.S)
			r = xorSeed(r, cw.S)
			lt ^= cw.TL
			rt ^= cw.TR
		}
		next[2*i], next[2*i+1] = l, r
		nextT[2*i], nextT[2*i+1] = lt, rt
	}
}

// StepLeafBatch fuses the last walked level with the §3.1 terminal
// conversion for scalar keys: the nodes (seeds[i], ts[i]) sit one level
// above the terminal frontier and share the final correction word
// k.CWs[TreeDepth()-1]; each node's two terminal children are expanded,
// corrected, and converted straight into this party's output shares —
// dst[i·2·g : (i+1)·2·g] (g = GroupLanes()) receives node i's children's
// groups in leaf order — without the child seeds round-tripping through a
// frontier buffer. Like LeafValuesInto, this assumes a scalar key
// (Lanes == 1): conversion reads straight from the seed words with no
// extra PRF call. dst must have 2·len(seeds)·GroupLanes() entries.
func StepLeafBatch(prg PRG, k *Key, seeds []Seed, ts []uint8, dst []uint32, sc *BatchScratch) {
	cw := k.CWs[k.TreeDepth()-1]
	if a, ok := prg.(*AESPRG); ok {
		// The default PRF fuses all the way down: the AES kernel's output
		// blocks are corrected and converted out of a stack buffer,
		// skipping the batch scratch too.
		a.stepLeafBatch(k, seeds, ts, cw, dst)
		return
	}
	n := len(seeds)
	sc.grow(n)
	prg.ExpandBatch(seeds, sc.left, sc.right, sc.tl, sc.tr)
	gl := k.GroupLanes()
	for i := 0; i < n; i++ {
		l, r := sc.left[i], sc.right[i]
		lt, rt := sc.tl[i], sc.tr[i]
		if ts[i] == 1 {
			l = xorSeed(l, cw.S)
			r = xorSeed(r, cw.S)
			lt ^= cw.TL
			rt ^= cw.TR
		}
		convertLeafGroup(k, &l, lt, 0, dst[2*i*gl:(2*i+1)*gl])
		convertLeafGroup(k, &r, rt, 0, dst[(2*i+1)*gl:(2*i+2)*gl])
	}
}

// convertLeafGroup converts lanes [jLo, jLo+len(out)) of one corrected
// terminal seed of a scalar key into output shares (final correction plus
// party sign). Like the AES steps' correction passes it masks instead of
// branching on the control bit and the party: the bit is pseudorandom, a
// branch on it mispredicts every other node.
//
// Only the seed's own four words can be lanes as they stand. Any lane past
// them must come from ConvertInto's PRG, which costs what one more tree
// level costs: filling lanes 4–7 with a public fixed-key hash H of the
// seed would leak the queried index. A server holding its terminal seeds
// and the final correction word can compute, for every terminal j, D_j =
// Final ∓ lanes(s_j). Only α's terminal gives a D whose second half is H
// of its first half (up to β in one lane), so that one server learns α's
// group.
func convertLeafGroup(k *Key, s *Seed, t uint8, jLo int, out []uint32) {
	fm, neg := -uint32(t), -uint32(k.Party)
	if len(out) == 4 && len(k.Final) == 4 {
		// A whole group at the default early-termination depth: the lane
		// loop unrolls into straight stores (3.3 against 7 ns per seed).
		f := (*[4]uint32)(k.Final)
		o := (*[4]uint32)(out)
		o[0] = ((leU32(s[0:4]) + f[0]&fm) ^ neg) - neg
		o[1] = ((leU32(s[4:8]) + f[1]&fm) ^ neg) - neg
		o[2] = ((leU32(s[8:12]) + f[2]&fm) ^ neg) - neg
		o[3] = ((leU32(s[12:16]) + f[3]&fm) ^ neg) - neg
		return
	}
	words, final := s[4*jLo:], k.Final[jLo:]
	for j := range out {
		out[j] = ((leU32(words[4*j:4*j+4]) + final[j]&fm) ^ neg) - neg
	}
}

// LeafValue converts one terminal node state into this party's output
// shares for the node's whole leaf group, applying the final correction
// word and the party sign. dst must have k.GroupLanes() entries (= k.Lanes
// for full-depth keys) and receives the group's leaves' lanes concatenated
// in leaf order; it is returned for convenience. The conversion happens in
// place via ConvertInto, so terminal groups up to four lanes wide (the PIR
// hot path, early-terminated or not) cost zero allocations.
func LeafValue(prg PRG, k *Key, s Seed, t uint8, dst []uint32) []uint32 {
	n := k.GroupLanes()
	dst = dst[:n]
	ConvertInto(prg, s, dst)
	for i := 0; i < n; i++ {
		v := dst[i]
		if t == 1 {
			v += k.Final[i]
		}
		if k.Party == 1 {
			v = -v
		}
		dst[i] = v
	}
	return dst
}

// LeafValuesInto converts a whole terminal frontier of a scalar key into
// this party's output shares: each terminal node yields its GroupSize()
// consecutive leaf values, so dst must have len(seeds) << Early entries.
// The conversion reads straight from the seed words with no PRF call —
// for early-terminated keys this is the §3.1 payoff: one 128-bit seed
// becomes four output lanes instead of four walked leaves.
func LeafValuesInto(k *Key, seeds []Seed, ts []uint8, dst []uint32) {
	if k.Early == 0 {
		// One lane per seed: a call per seed would cost five times the
		// arithmetic.
		final, neg := k.Final[0], -uint32(k.Party)
		for i := range seeds {
			dst[i] = ((leU32(seeds[i][0:4]) + final&-uint32(ts[i])) ^ neg) - neg
		}
		return
	}
	gs := k.GroupSize()
	for i := range seeds {
		convertLeafGroup(k, &seeds[i], ts[i], 0, dst[i*gs:(i+1)*gs])
	}
}

// LeafRangeInto converts leaves [lo, hi) of a scalar key's terminal
// frontier into dst (hi-lo values): seeds[g] covers leaves
// [g<<Early, (g+1)<<Early) in the frontier's own coordinates, so lo and hi
// may cut through a terminal group — range walkers and shard boundaries
// land wherever they like, the first and last group clip.
func LeafRangeInto(k *Key, seeds []Seed, ts []uint8, lo, hi uint64, dst []uint32) {
	gs := uint64(k.GroupSize())
	if head := lo % gs; head > 0 {
		n := min(gs-head, hi-lo)
		convertLeafGroup(k, &seeds[lo/gs], ts[lo/gs], int(head), dst[:n])
		dst, lo = dst[n:], lo+n
	}
	if lo == hi {
		return
	}
	// lo is group-aligned from here on.
	gLo, gHi := lo/gs, hi/gs
	LeafValuesInto(k, seeds[gLo:gHi], ts[gLo:gHi], dst)
	if tail := hi % gs; tail > 0 {
		convertLeafGroup(k, &seeds[gHi], ts[gHi], 0, dst[(gHi-gLo)*gs:][:tail])
	}
}

// LeafValueScalar is LeafValue specialized to one-lane full-depth keys
// (the wire-v1 PIR hot path and the frozen seed baseline); it avoids the
// slice plumbing. Early-terminated keys convert whole groups — use
// LeafLane for one leaf of a terminal group.
func LeafValueScalar(k *Key, s Seed, t uint8) uint32 {
	// One lane converts straight from the seed; no extra PRF call.
	v := leU32(s[0:4])
	if t == 1 {
		v += k.Final[0]
	}
	if k.Party == 1 {
		v = -v
	}
	return v
}

// LeafLane converts a single lane of a scalar key's terminal group: the
// share of leaf (group<<Early)+sub is the seed's sub-th 32-bit word plus
// its slot of the final correction word. sub must be < GroupSize().
func LeafLane(k *Key, s Seed, t uint8, sub int) uint32 {
	v := leU32(s[sub*4 : sub*4+4])
	if t == 1 {
		v += k.Final[sub]
	}
	if k.Party == 1 {
		v = -v
	}
	return v
}

// EvalAt evaluates the key at a single index x, walking one root-to-
// terminal path (TreeDepth PRF calls) and converting the terminal seed's
// group, of which x's slot is returned.
func EvalAt(prg PRG, k *Key, x uint64) ([]uint32, error) {
	if x >= k.Domain() {
		return nil, fmt.Errorf("dpf: index %d outside domain 2^%d", x, k.Bits)
	}
	s, t := k.Root, k.Party
	depth := k.TreeDepth()
	for level := 0; level < depth; level++ {
		bit := uint8(x>>uint(k.Bits-1-level)) & 1
		s, t = Step(prg, s, t, k.CWs[level], bit)
	}
	group := make([]uint32, k.GroupLanes())
	LeafValue(prg, k, s, t, group)
	sub := int(x) & (k.GroupSize() - 1)
	return group[sub*k.Lanes : (sub+1)*k.Lanes], nil
}

// FrontierScratch holds the ping-pong level buffers a full breadth-first
// expansion walks through, plus the batch scratch underneath. The zero
// value is ready to use; buffers grow to the largest domain seen and are
// retained, so steady-state full expansions allocate nothing.
type FrontierScratch struct {
	seeds, next []Seed
	ts, nextT   []uint8
	batch       BatchScratch
}

func (f *FrontierScratch) grow(n uint64) {
	if uint64(cap(f.seeds)) < n {
		f.seeds = make([]Seed, n)
		f.next = make([]Seed, n)
		f.ts = make([]uint8, n)
		f.nextT = make([]uint8, n)
	}
}

// EvalFull expands the entire domain level by level and returns the flat
// share vector of length 2^Bits * Lanes. This is the reference expansion
// (and the core of the CPU level-by-level baseline): 2·(L>>Early)-2 PRF
// calls, O(L) intermediate memory.
func EvalFull(prg PRG, k *Key) []uint32 {
	out := make([]uint32, k.Domain()*uint64(k.Lanes))
	var sc FrontierScratch
	EvalFullInto(prg, k, out, &sc)
	return out
}

// ExpandFrontier expands the key's whole tree breadth-first through the
// scratch — one StepBothBatch (a single batched PRF call) per level — and
// returns the terminal frontier: Domain()>>Early seeds and control bits
// (node g covering leaves [g<<Early, (g+1)<<Early)), valid until the
// scratch's next use. Steady state allocates nothing once the scratch has
// seen the frontier size.
func (f *FrontierScratch) ExpandFrontier(prg PRG, k *Key) ([]Seed, []uint8) {
	f.grow(k.Domain() >> uint(k.Early))
	seeds, ts := f.seeds[:1], f.ts[:1]
	next, nextT := f.next, f.nextT
	seeds[0], ts[0] = k.Root, k.Party
	depth := k.TreeDepth()
	for level := 0; level < depth; level++ {
		w := len(seeds)
		StepBothBatch(prg, seeds, ts, k.CWs[level], next[:2*w], nextT[:2*w], &f.batch)
		seeds, next = next[:2*w], seeds[:cap(seeds)]
		ts, nextT = nextT[:2*w], ts[:cap(ts)]
	}
	// Keep the scratch's buffer identities stable for the next call.
	f.seeds, f.next = seeds[:cap(seeds)], next[:cap(next)]
	f.ts, f.nextT = ts[:cap(ts)], nextT[:cap(nextT)]
	return seeds, ts
}

// ExpandLeaves is ExpandFrontier fused with the terminal conversion for
// scalar keys: the breadth-first walk stops one level above the terminal
// frontier and the final StepLeafBatch converts the last level's children
// straight into dst (Domain() values) — the widest frontier level never
// materializes in the ping-pong buffers, halving the scratch high-water
// mark and skipping the separate LeafValuesInto pass over it.
func (f *FrontierScratch) ExpandLeaves(prg PRG, k *Key, dst []uint32) {
	f.grow(k.Domain() >> uint(k.Early+1))
	seeds, ts := f.seeds[:1], f.ts[:1]
	next, nextT := f.next, f.nextT
	seeds[0], ts[0] = k.Root, k.Party
	depth := k.TreeDepth()
	for level := 0; level < depth-1; level++ {
		w := len(seeds)
		StepBothBatch(prg, seeds, ts, k.CWs[level], next[:2*w], nextT[:2*w], &f.batch)
		seeds, next = next[:2*w], seeds[:cap(seeds)]
		ts, nextT = nextT[:2*w], ts[:cap(ts)]
	}
	StepLeafBatch(prg, k, seeds, ts, dst, &f.batch)
	// Keep the scratch's buffer identities stable for the next call.
	f.seeds, f.next = seeds[:cap(seeds)], next[:cap(next)]
	f.ts, f.nextT = ts[:cap(ts)], nextT[:cap(nextT)]
}

// EvalFullInto is EvalFull through caller-provided output and scratch. out
// must have length Domain()·Lanes.
func EvalFullInto(prg PRG, k *Key, out []uint32, sc *FrontierScratch) {
	if k.Lanes == 1 {
		// Scalar keys take the fused walk: the last level converts straight
		// into out.
		sc.ExpandLeaves(prg, k, out)
		return
	}
	seeds, ts := sc.ExpandFrontier(prg, k)
	// A terminal group's lanes are its leaves' lanes concatenated in leaf
	// order, which is exactly the flat output layout.
	groupLanes := uint64(k.GroupLanes())
	for g := range seeds {
		LeafValue(prg, k, seeds[g], ts[g], out[uint64(g)*groupLanes:(uint64(g)+1)*groupLanes])
	}
}

// EvalRange evaluates leaves [lo, hi) into out (len (hi-lo)*Lanes), using a
// depth-first traversal that prunes subtrees outside the range. Cost is
// O((hi-lo) + log L) PRF calls, which makes multi-GPU style sharding
// (paper §3.2.7) embarrassingly parallel. Leaf shares are converted
// directly into out, so scalar and ≤4-lane keys evaluate with zero
// allocations.
func EvalRange(prg PRG, k *Key, lo, hi uint64, out []uint32) error {
	if lo > hi || hi > k.Domain() {
		return fmt.Errorf("dpf: range [%d,%d) outside domain 2^%d", lo, hi, k.Bits)
	}
	if uint64(len(out)) < (hi-lo)*uint64(k.Lanes) {
		return fmt.Errorf("dpf: output buffer too small: %d < %d", len(out), (hi-lo)*uint64(k.Lanes))
	}
	if lo == hi {
		return nil
	}
	evalRangeWalk(prg, k, k.Root, k.Party, 0, 0, lo, hi, out)
	return nil
}

// evalRangeWalk is EvalRange's pruned descent. It is a plain recursive
// function (not a closure) so the walk itself never touches the heap.
// The recursion bottoms out at the terminal frontier (TreeDepth levels
// down), where one seed converts into its whole leaf group, clipped to
// [lo, hi).
func evalRangeWalk(prg PRG, k *Key, s Seed, t uint8, level int, base, lo, hi uint64, out []uint32) {
	span := uint64(1) << uint(k.Bits-level)
	if base >= hi || base+span <= lo {
		return
	}
	if level == k.TreeDepth() {
		if k.Early == 0 {
			if k.Lanes == 1 {
				out[base-lo] = LeafValueScalar(k, s, t)
			} else {
				lanes := uint64(k.Lanes)
				LeafValue(prg, k, s, t, out[(base-lo)*lanes:(base-lo+1)*lanes])
			}
			return
		}
		// The terminal group (≤ 4 lanes) converts into a stack buffer and
		// the in-range slice is copied out — group boundaries need not
		// align with [lo, hi).
		var buf [4]uint32
		group := LeafValue(prg, k, s, t, buf[:k.GroupLanes()])
		jLo, jHi := uint64(0), span
		if base < lo {
			jLo = lo - base
		}
		if base+span > hi {
			jHi = hi - base
		}
		lanes := uint64(k.Lanes)
		copy(out[(base+jLo-lo)*lanes:(base+jHi-lo)*lanes], group[jLo*lanes:jHi*lanes])
		return
	}
	ls, lt, rs, rt := StepBoth(prg, s, t, k.CWs[level])
	evalRangeWalk(prg, k, ls, lt, level+1, base, lo, hi, out)
	evalRangeWalk(prg, k, rs, rt, level+1, base+span/2, lo, hi, out)
}

// xorSeed XORs two seeds as a pair of 64-bit words (the compiler lowers
// the binary loads/stores to single moves — the byte loop this replaces
// showed up in the hot-path profile).
func xorSeed(a, b Seed) Seed {
	var out Seed
	binary.LittleEndian.PutUint64(out[0:8], binary.LittleEndian.Uint64(a[0:8])^binary.LittleEndian.Uint64(b[0:8]))
	binary.LittleEndian.PutUint64(out[8:16], binary.LittleEndian.Uint64(a[8:16])^binary.LittleEndian.Uint64(b[8:16]))
	return out
}

func leU32(b []byte) uint32 {
	return binary.LittleEndian.Uint32(b)
}
