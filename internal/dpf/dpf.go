// Package dpf implements distributed point functions (DPFs) for two-server
// private information retrieval.
//
// A DPF lets a client split a point function f_{α,β} (which is β at index α
// and zero everywhere else) into two compact keys. Each key individually
// reveals nothing about α, yet the two parties' evaluations add up (mod 2^32)
// to β at α and to zero elsewhere. This is the construction of
// Boyle, Gilboa and Ishai ("Function Secret Sharing", 2015), the same
// optimal-asymptotics algorithm accelerated by the paper: O(λ·log L)
// communication and O(λ·L) evaluation work, one PRF call per tree node.
//
// The output group is Z_2^32 and every key is scalar: β is one 32-bit
// value. PIR sets β = 1, so a key's full-domain expansion is a
// secret-shared one-hot vector that the server multiplies against the
// table, one share per row whatever the row's width.
package dpf

import (
	"encoding/binary"
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
// levels for λ = 128 and w = 32, i.e. one 128-bit terminal seed holds
// four 32-bit leaf shares without extra PRF calls. Stopping there and
// converting each terminal seed into four leaves (paper §3.1) cuts the PRF
// work of a full expansion ~4×.
const MaxEarlyBits = 2

// DefaultEarly is the early-termination depth a key of the given tree
// depth gets: MaxEarlyBits, clamped so at least one tree level remains
// (2 whenever bits ≥ 3). A table of rows serves keys of depth
// DefaultEarly(DomainBits(rows)): every serving layer derives the depth
// so, and none takes it as a setting.
func DefaultEarly(bits int) int {
	return min(MaxEarlyBits, max(bits-1, 0))
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
//
// A terminal seed converts into its group's leaf shares word by word (see
// leafWords): leaf i is the seed's i-th little-endian 32-bit word, except
// that word 0's low bit, the slot the seed's control bit was peeled from
// and so zero in every terminal seed of both parties, is replaced by the
// XOR of the low bits of words 1–3. Taken as it is, that bit would make
// the low bit of Final[0] β's whenever α opens its terminal group. So
// Final[0]'s low bit is uniform on groups of one and two leaves; on
// four-leaf groups the low bits of the four Final words are uniform up to
// their parity, which is β's parity and says nothing about α.
type Key struct {
	// Bits is the tree depth n; the domain is [0, 2^Bits).
	Bits int
	// Early is the early-termination depth (§3.1): the tree walk stops
	// Early levels above the leaves, and each terminal seed converts into
	// the shares of 2^Early consecutive leaves. 0 walks the full depth.
	Early int
	// Party is 0 or 1; party 1 negates its outputs so shares are additive.
	Party uint8
	// Root is this party's root seed.
	Root Seed
	// CWs holds one correction word per walked level (Bits - Early of
	// them), root to terminal nodes.
	CWs []CW
	// Final is the output-group correction applied at terminal nodes with
	// control bit 1: one word per leaf of a terminal group (GroupSize of
	// them, in leaf order).
	Final []uint32
}

// Domain returns the number of leaves 2^Bits.
func (k *Key) Domain() uint64 { return 1 << uint(k.Bits) }

// TreeDepth is the number of levels the evaluation tree actually walks:
// Bits - Early correction words from the root to the terminal frontier.
func (k *Key) TreeDepth() int { return k.Bits - k.Early }

// GroupSize is the number of consecutive leaves one terminal seed covers.
func (k *Key) GroupSize() int { return 1 << uint(k.Early) }

// Gen generates a DPF key pair for the point function that evaluates to beta
// at index alpha and to zero elsewhere over a domain of 2^bits indices.
// Randomness is drawn from rng (use crypto/rand.Reader in production).
// Keys take the depth a 2^bits-row table serves (DefaultEarly): the tree
// walk stops 2 levels early and each terminal seed converts into four
// leaf shares, the §3.1 optimisation. GenEarly takes an explicit depth.
func Gen(prg PRG, alpha uint64, bits int, beta uint32, rng io.Reader) (k0, k1 Key, err error) {
	return GenEarly(prg, alpha, bits, beta, DefaultEarly(bits), rng)
}

// GenEarly is Gen with an explicit early-termination depth: the generated
// keys walk bits-early tree levels and convert each 128-bit terminal seed
// into the shares of 2^early consecutive leaves. early must leave at
// least one tree level; 0 walks the full depth.
func GenEarly(prg PRG, alpha uint64, bits int, beta uint32, early int, rng io.Reader) (k0, k1 Key, err error) {
	if bits <= 0 || bits > MaxBits {
		return k0, k1, fmt.Errorf("dpf: bits %d out of range [1,%d]", bits, MaxBits)
	}
	if alpha >= 1<<uint(bits) {
		return k0, k1, fmt.Errorf("dpf: alpha %d outside domain 2^%d", alpha, bits)
	}
	if early < 0 || early > MaxEarlyBits {
		return k0, k1, fmt.Errorf("dpf: early-termination depth %d out of range [0,%d]", early, MaxEarlyBits)
	}
	if early >= bits {
		return k0, k1, fmt.Errorf("dpf: early-termination depth %d leaves no tree levels for %d bits", early, bits)
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

	// Final correction word over the terminal group, whose leaf i converts
	// from the seed's i-th converted 32-bit word w_i (leafWords):
	// final_i = (-1)^{t1} * (β·[i = sub] - w_i(s0) + w_i(s1)) mod 2^32, where
	// sub is the group slot the low `early` bits of alpha select — the
	// other leaves of alpha's terminal group must still share to zero.
	sub := int(alpha) & (1<<uint(early) - 1)
	w0, w1 := leafWords(&s[0]), leafWords(&s[1])
	final := make([]uint32, 1<<uint(early))
	for i := range final {
		v := w1[i] - w0[i]
		if i == sub {
			v += beta
		}
		if t[1] == 1 {
			v = -v
		}
		final[i] = v
	}

	mk := func(party uint8) Key {
		return Key{
			Bits:  bits,
			Early: early,
			Party: party,
			Root:  roots[party],
			CWs:   append([]CW(nil), cws...),
			Final: append([]uint32(nil), final...),
		}
	}
	return mk(0), mk(1), nil
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
// conversion: the nodes (seeds[i], ts[i]) sit one level above the
// terminal frontier and share the final correction word
// k.CWs[TreeDepth()-1]; each node's two terminal children are expanded,
// corrected, and converted straight into this party's output shares —
// dst[i·2·g : (i+1)·2·g] (g = GroupSize()) receives node i's children's
// groups in leaf order — without the child seeds round-tripping through a
// frontier buffer. Conversion reads straight from the seed words with no
// extra PRF call. dst must have 2·len(seeds)·GroupSize() entries.
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
	gl := k.GroupSize()
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

// leafWords is the §3.1 leaf conversion of a terminal seed: its four
// little-endian 32-bit words, the shares of the group's leaves before the
// final correction, with word 0's low bit replaced by the XOR of the low
// bits of words 1–3 (Key says why). Every evaluation path converts
// through this rule.
func leafWords(s *Seed) [4]uint32 {
	lo, hi := binary.LittleEndian.Uint64(s[0:8]), binary.LittleEndian.Uint64(s[8:16])
	lo = hideLow(lo, hi)
	return [4]uint32{uint32(lo), uint32(lo >> 32), uint32(hi), uint32(hi >> 32)}
}

// hideLow is leafWords on a seed split into 64-bit halves, words 0–1 and
// words 2–3: it returns the low half with word 0's low bit set to the XOR
// of the low bits of words 1–3, whatever it was. The map is linear over
// GF(2), so converting a corrected child is converting the raw child and
// XORing in the converted correction seed under the parent's mask (the
// leaf kernels do that).
func hideLow(lo, hi uint64) uint64 { return lo ^ (lo^lo>>32^hi^hi>>32)&1 }

// convertLeafGroup converts leaves [jLo, jLo+len(out)) of one corrected
// terminal seed's group into output shares (leafWords, final correction
// and party sign). Like the AES steps' correction passes it masks instead
// of branching on the control bit and the party: the bit is pseudorandom,
// a branch on it mispredicts every other node.
//
// A group is at most the seed's own four words. A wider one would need a
// PRG call per terminal, which costs what one more tree level costs:
// filling words 4–7 with a public fixed-key hash H of the seed would leak
// the queried index. A server holding its terminal seeds and the final
// correction word can compute, for every terminal j, D_j = Final ∓
// words(s_j). Only α's terminal gives a D whose second half is H of its
// first half (up to β in one word), so that one server learns α's group.
func convertLeafGroup(k *Key, s *Seed, t uint8, jLo int, out []uint32) {
	fm, neg := -uint32(t), -uint32(k.Party)
	if len(out) == 4 && len(k.Final) == 4 {
		// A whole group at the default early-termination depth: the lane
		// loop unrolls into straight stores (3.3 against 7 ns per seed).
		f := (*[4]uint32)(k.Final)
		o := (*[4]uint32)(out)
		w := leafWords(s)
		o[0] = ((w[0] + f[0]&fm) ^ neg) - neg
		o[1] = ((w[1] + f[1]&fm) ^ neg) - neg
		o[2] = ((w[2] + f[2]&fm) ^ neg) - neg
		o[3] = ((w[3] + f[3]&fm) ^ neg) - neg
		return
	}
	words := leafWords(s)
	for j := range out {
		out[j] = ((words[jLo+j] + k.Final[jLo+j]&fm) ^ neg) - neg
	}
}

// LeafValuesInto converts a whole terminal frontier into this party's
// output shares: each terminal node yields its GroupSize()
// consecutive leaf values, so dst must have len(seeds) << Early entries.
// The conversion (leafWords) reads straight from the seed words with no
// PRF call — for early-terminated keys this is the §3.1 payoff: one
// 128-bit seed becomes four output lanes instead of four walked leaves.
func LeafValuesInto(k *Key, seeds []Seed, ts []uint8, dst []uint32) {
	if k.Early == 0 {
		// One lane per seed, converted word 0: a call per seed would cost
		// five times the arithmetic.
		final, neg := k.Final[0], -uint32(k.Party)
		for i := range seeds {
			dst[i] = ((leafWords(&seeds[i])[0] + final&-uint32(ts[i])) ^ neg) - neg
		}
		return
	}
	gs := k.GroupSize()
	for i := range seeds {
		convertLeafGroup(k, &seeds[i], ts[i], 0, dst[i*gs:(i+1)*gs])
	}
}

// LeafRangeInto converts leaves [lo, hi) of a key's terminal frontier
// into dst (hi-lo values): seeds[g] covers leaves
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
// share vector of length 2^Bits. This is the reference expansion (and the
// core of the CPU level-by-level baseline): 2·(L>>Early)-2 PRF calls, O(L)
// intermediate memory.
func EvalFull(prg PRG, k *Key) []uint32 {
	out := make([]uint32, k.Domain())
	var sc FrontierScratch
	EvalFullInto(prg, k, out, &sc)
	return out
}

// EvalFullInto is EvalFull through caller-provided output and scratch; out
// must have length Domain(). The breadth-first walk takes one
// StepBothBatch (a single batched PRF call) per level and stops one level
// above the terminal frontier, where StepLeafBatch converts the last
// level's children straight into out: the widest level never materializes
// in the ping-pong buffers. Steady state allocates nothing once the
// scratch has seen the domain.
func EvalFullInto(prg PRG, k *Key, out []uint32, sc *FrontierScratch) {
	sc.grow(k.Domain() >> uint(k.Early+1))
	seeds, ts := sc.seeds[:1], sc.ts[:1]
	next, nextT := sc.next, sc.nextT
	seeds[0], ts[0] = k.Root, k.Party
	depth := k.TreeDepth()
	for level := 0; level < depth-1; level++ {
		w := len(seeds)
		StepBothBatch(prg, seeds, ts, k.CWs[level], next[:2*w], nextT[:2*w], &sc.batch)
		seeds, next = next[:2*w], seeds[:cap(seeds)]
		ts, nextT = nextT[:2*w], ts[:cap(ts)]
	}
	StepLeafBatch(prg, k, seeds, ts, out, &sc.batch)
	// Keep the scratch's buffer identities stable for the next call.
	sc.seeds, sc.next = seeds[:cap(seeds)], next[:cap(next)]
	sc.ts, sc.nextT = ts[:cap(ts)], nextT[:cap(nextT)]
}

// EvalRange evaluates leaves [lo, hi) into out (len hi-lo), using a
// depth-first traversal that prunes subtrees outside the range. Cost is
// O((hi-lo) + log L) PRF calls, which makes multi-GPU style sharding
// (paper §3.2.7) embarrassingly parallel. Terminal seeds convert through
// LeafRangeInto, the conversion the executor serves, with no allocation.
func EvalRange(prg PRG, k *Key, lo, hi uint64, out []uint32) error {
	if lo > hi || hi > k.Domain() {
		return fmt.Errorf("dpf: range [%d,%d) outside domain 2^%d", lo, hi, k.Bits)
	}
	if uint64(len(out)) < hi-lo {
		return fmt.Errorf("dpf: output buffer too small: %d < %d", len(out), hi-lo)
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
// down), where one seed converts into its leaf group, clipped to
// [lo, hi).
func evalRangeWalk(prg PRG, k *Key, s Seed, t uint8, level int, base, lo, hi uint64, out []uint32) {
	span := uint64(1) << uint(k.Bits-level)
	if base >= hi || base+span <= lo {
		return
	}
	if level == k.TreeDepth() {
		seeds, ts := [1]Seed{s}, [1]uint8{t}
		jLo, jHi := max(base, lo)-base, min(base+span, hi)-base
		LeafRangeInto(k, seeds[:], ts[:], jLo, jHi, out[base+jLo-lo:base+jHi-lo])
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
