package dpf

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	mrand "math/rand"
	randv2 "math/rand/v2"
	"testing"
)

// aesGStdlib is the reference for AESPRG's G, built from crypto/aes
// alone: x = σ(s) = (s_hi ^ s_lo)‖s_hi with s_lo bytes 0-7, then
// left = π_L(x) ^ x, right = π_R(x) ^ x.
func aesGStdlib(pl, pr cipher.Block, s Seed) (left, right Seed) {
	var x Seed
	for i := 0; i < 8; i++ {
		x[i], x[8+i] = s[8+i], s[8+i]^s[i]
	}
	pl.Encrypt(left[:], x[:])
	pr.Encrypt(right[:], x[:])
	for i := range x {
		left[i] ^= x[i]
		right[i] ^= x[i]
	}
	return
}

// aesFixedStdlib returns π_L and π_R as crypto/aes ciphers. The keys are
// spelled out in hex, and checked against their documented derivation,
// so a drift in the package's key set-up cannot move the reference with
// it.
func aesFixedStdlib(t *testing.T) (pl, pr cipher.Block) {
	t.Helper()
	var pi [2]cipher.Block
	for i, c := range []struct{ label, hex string }{
		{"gpudpf/aes128/left", "233f9058103e47758ae84e49a6a733e4"},
		{"gpudpf/aes128/right", "2c57843defd46639668044fe3c89a5d8"},
	} {
		key, err := hex.DecodeString(c.hex)
		if err != nil {
			t.Fatal(err)
		}
		if sum := sha256.Sum256([]byte(c.label)); !bytes.Equal(sum[:16], key) {
			t.Fatalf("fixed key %q is %x, SHA-256 of its label starts %x", c.label, key, sum[:16])
		}
		if pi[i], err = aes.NewCipher(key); err != nil {
			t.Fatal(err)
		}
	}
	return pi[0], pi[1]
}

// TestAESBlockMatchesStdlib pins the software AES-128 (aesblock.go) to
// crypto/aes: same key schedule, same ciphertext, for random key pairs and
// seeds pushed through G.
func TestAESBlockMatchesStdlib(t *testing.T) {
	rng := mrand.New(mrand.NewSource(1))
	var kl, kr, s, gotL, gotR Seed
	var rkl, rkr aesRoundKeys
	for trial := 0; trial < 200; trial++ {
		rng.Read(kl[:])
		rng.Read(kr[:])
		rng.Read(s[:])
		pl, err := aes.NewCipher(kl[:])
		if err != nil {
			t.Fatal(err)
		}
		pr, err := aes.NewCipher(kr[:])
		if err != nil {
			t.Fatal(err)
		}
		wantL, wantR := aesGStdlib(pl, pr, s)
		rkl.expand(&kl)
		rkr.expand(&kr)
		aesG(&rkl, &rkr, &gotL, &gotR, &s)
		if gotL != wantL || gotR != wantR {
			t.Fatalf("trial %d: software G (%x, %x) != stdlib (%x, %x) (keys %x %x, seed %x)",
				trial, gotL, gotR, wantL, wantR, kl, kr, s)
		}
	}
}

// TestAESKernelKnownAnswer pins G itself: three seeds whose children were
// computed outside Go (an independent AES implementation, the same σ and
// feed-forward), held against the crypto/aes reference, both expansion
// bodies and the scalar Expand.
func TestAESKernelKnownAnswer(t *testing.T) {
	pl, pr := aesFixedStdlib(t)
	for _, v := range []struct{ seed, left, right string }{
		{"00000000000000000000000000000000", "e9609d43cf55d75c419d5689f985ce24", "d0b8f3e4e2acb7c602eda1963c120ea5"},
		{"000102030405060708090a0b0c0d0e0f", "f8e77bdd44ae2274760b51f34b94c512", "60602a48a83463fdb017715d130c7f43"},
		{"fedcba98765432100123456789abcdef", "85fcfe030d84619ccf466fe93a95b343", "051ba42686a2ea9da50116f5bfa8e3e8"},
	} {
		var s, wantL, wantR Seed
		for _, f := range []struct {
			dst *Seed
			hex string
		}{{&s, v.seed}, {&wantL, v.left}, {&wantR, v.right}} {
			if _, err := hex.Decode(f.dst[:], []byte(f.hex)); err != nil {
				t.Fatal(err)
			}
		}
		if l, r := aesGStdlib(pl, pr, s); l != wantL || r != wantR {
			t.Fatalf("seed %s: crypto/aes reference (%x, %x), vector (%s, %s)", v.seed, l, r, v.left, v.right)
		}
		for name, body := range map[string]func(out, seeds []Seed){
			"dispatch:" + AESKernel(): aesExpandNodes,
			"portable":                aesExpandNodesGo,
		} {
			var kids [2]Seed
			body(kids[:], []Seed{s})
			if kids[0] != wantL || kids[1] != wantR {
				t.Errorf("%s: seed %s: (%x, %x), vector (%s, %s)", name, v.seed, kids[0], kids[1], v.left, v.right)
			}
		}
		l, r, tl, tr := NewAESPRG().Expand(s)
		wl, wr := wantL, wantR
		wtl, wtr := clearControlBits(&wl, &wr)
		if l != wl || r != wr || tl != wtl || tr != wtr {
			t.Errorf("Expand(%s) = (%x, %x, %d, %d), want (%x, %x, %d, %d)", v.seed, l, r, tl, tr, wl, wr, wtl, wtr)
		}
	}
}

// checkAESExpandMatchesStdlib pins one body of aesExpandNodes to G built
// from crypto/aes: 500 seeded random frontiers, each expanded at every
// length 1..67 — every residue of the 4-, 8- and 16-node block sizes, so
// whole-block loops and padded tails are all hit — must yield G(seed) per
// node, in leaf order, and write nothing past 2·n.
func checkAESExpandMatchesStdlib(t *testing.T, expand func(out, seeds []Seed)) {
	t.Helper()
	const maxN = 67
	pl, pr := aesFixedStdlib(t)
	rng := mrand.New(mrand.NewSource(8))
	var seeds [maxN]Seed
	var want, got [2*maxN + 1]Seed
	var guard Seed
	for trial := 0; trial < 500; trial++ {
		for i := range seeds {
			rng.Read(seeds[i][:])
			want[2*i], want[2*i+1] = aesGStdlib(pl, pr, seeds[i])
		}
		rng.Read(guard[:])
		for n := 1; n <= maxN; n++ {
			got[2*n] = guard
			expand(got[:2*n], seeds[:n])
			for i := 0; i < 2*n; i++ {
				if got[i] != want[i] {
					t.Fatalf("trial %d n=%d: child %d of seed %x is %x, crypto/aes says %x",
						trial, n, i&1, seeds[i/2], got[i], want[i])
				}
			}
			if got[2*n] != guard {
				t.Fatalf("trial %d n=%d: wrote past the %d children", trial, n, 2*n)
			}
		}
	}
}

// TestAESKernelsMatchStdlib pins the AES node expansion every batched and
// scalar path goes through to crypto/aes: the body this host dispatches to
// and the portable T-table body (which -tags purego and non-amd64 builds
// dispatch to). The asm tiers are pinned one by one in
// TestAESKernelTiersMatchStdlib.
func TestAESKernelsMatchStdlib(t *testing.T) {
	t.Run("dispatch:"+AESKernel(), func(t *testing.T) { checkAESExpandMatchesStdlib(t, aesExpandNodes) })
	t.Run("portable", func(t *testing.T) { checkAESExpandMatchesStdlib(t, aesExpandNodesGo) })
}

// checkAESFusedMatchesOracle pins one body of the AES frontier step and of
// the four-lane leaf step to the two-pass definition (G from crypto/aes,
// then correctChildren / correctConvert) at every frontier length 1..70 —
// whole 16-blocks, whole 4-blocks and 1-3-node padded tails in every
// combination — over PCG-seeded seeds, correction words (cw.S with its
// control-bit position set and clear) and final corrections, for every
// cw.TL/cw.TR/party combination and parent bits all 0, all 1 and random.
// A canary follows next, nextT and dst: the bodies must write exactly
// 2n seeds, 2n bits and 8n shares.
func checkAESFusedMatchesOracle(t *testing.T,
	step func(next []Seed, nextT []uint8, seeds []Seed, ts []uint8, cw *CW),
	leaf func(k *Key, seeds []Seed, ts []uint8, cw *CW, dst []uint32)) {
	t.Helper()
	const maxN = 70
	pl, pr := aesFixedStdlib(t)
	rng := randv2.New(randv2.NewPCG(16, 0x66757365))
	fill := func(b []byte) {
		for i := range b {
			b[i] = byte(rng.Uint32())
		}
	}
	var seeds [maxN]Seed
	var ts [maxN]uint8
	var raw, kids, next [2*maxN + 1]Seed
	var kidT, nextT [2*maxN + 1]uint8
	var want, dst [8*maxN + 1]uint32
	var guard Seed
	for trial := 0; trial < 96; trial++ {
		k := Key{Bits: 20, Early: 2, Party: uint8(trial >> 2 & 1), Final: make([]uint32, 4)}
		for j := range k.Final {
			k.Final[j] = rng.Uint32()
		}
		var cw CW
		fill(cw.S[:])
		cw.S[0] = cw.S[0]&^1 | uint8(trial>>3&1)
		cw.TL, cw.TR = uint8(trial&1), uint8(trial>>1&1)
		for i := range seeds {
			fill(seeds[i][:])
			raw[2*i], raw[2*i+1] = aesGStdlib(pl, pr, seeds[i])
			switch trial >> 4 % 3 {
			case 0:
				ts[i] = uint8(rng.Uint32() & 1)
			case 1:
				ts[i] = 0
			case 2:
				ts[i] = 1
			}
		}
		fill(guard[:])
		guardT, guardW := guard[0]|2, leU32(guard[4:8])
		for n := 1; n <= maxN; n++ {
			copy(kids[:2*n], raw[:2*n])
			correctConvert(&k, kids[:2*n], ts[:n], cw, want[:8*n])
			correctChildren(kids[:2*n], kidT[:2*n], ts[:n], cw)

			next[2*n], nextT[2*n], dst[8*n] = guard, guardT, guardW
			step(next[:2*n], nextT[:2*n], seeds[:n], ts[:n], &cw)
			for i := 0; i < 2*n; i++ {
				if next[i] != kids[i] || nextT[i] != kidT[i] {
					t.Fatalf("trial %d n=%d cw=(%x,%d,%d) parent %d (t=%d) child %d: step (%x,%d), oracle (%x,%d)",
						trial, n, cw.S, cw.TL, cw.TR, i/2, ts[i/2], i&1, next[i], nextT[i], kids[i], kidT[i])
				}
			}
			if next[2*n] != guard || nextT[2*n] != guardT {
				t.Fatalf("trial %d n=%d: step wrote past its %d children", trial, n, 2*n)
			}
			leaf(&k, seeds[:n], ts[:n], &cw, dst[:8*n])
			for i := 0; i < 8*n; i++ {
				if dst[i] != want[i] {
					t.Fatalf("trial %d n=%d party=%d cw=(%x,%d,%d) parent %d (t=%d) share %d: leaf %#x, oracle %#x",
						trial, n, k.Party, cw.S, cw.TL, cw.TR, i/8, ts[i/8], i%8, dst[i], want[i])
				}
			}
			if dst[8*n] != guardW {
				t.Fatalf("trial %d n=%d: leaf wrote past its %d shares", trial, n, 8*n)
			}
		}
	}
}

// TestAESKernelFusedMatchesOracle pins the fused frontier and leaf steps
// this host dispatches to (the two-pass body itself under -tags purego and
// off amd64) to the two-pass definition. The asm tiers are pinned one by
// one in TestAESKernelFusedTiersMatchOracle.
func TestAESKernelFusedMatchesOracle(t *testing.T) {
	prg := NewAESPRG()
	t.Run("dispatch:"+AESKernel(), func(t *testing.T) {
		checkAESFusedMatchesOracle(t,
			func(next []Seed, nextT []uint8, seeds []Seed, ts []uint8, cw *CW) {
				prg.stepBothBatch(seeds, ts, *cw, next, nextT)
			},
			func(k *Key, seeds []Seed, ts []uint8, cw *CW, dst []uint32) {
				prg.stepLeafBatch(k, seeds, ts, *cw, dst)
			})
	})
}

// TestAESBranchFreeCorrectionMatchesScalar pins the AES steps' branch-free
// correction passes to the scalar definition (StepBoth, then leafValue):
// parent control bits all 0, all 1 and random, every correction-bit
// combination, both parties, every early-termination depth, frontier
// lengths across the kernel's block sizes and the aesChunk boundary.
func TestAESBranchFreeCorrectionMatchesScalar(t *testing.T) {
	rng := mrand.New(mrand.NewSource(9))
	prg := NewAESPRG()
	lengths := []int{aesChunk - 1, aesChunk, aesChunk + 1, 3*aesChunk + 5}
	for n := 1; n <= 20; n++ {
		lengths = append(lengths, n)
	}
	// A slice, not a map: the patterns share rng, so a random visiting
	// order would make a failure unreplayable.
	patterns := []struct {
		name string
		bit  func() uint8
	}{
		{"all0", func() uint8 { return 0 }},
		{"all1", func() uint8 { return 1 }},
		{"random", func() uint8 { return uint8(rng.Intn(2)) }},
	}
	for _, p := range patterns {
		name, bit := p.name, p.bit
		for _, n := range lengths {
			seeds := make([]Seed, n)
			ts := make([]uint8, n)
			for i := range seeds {
				rng.Read(seeds[i][:])
				ts[i] = bit()
			}
			k := Key{Bits: 20, Early: rng.Intn(3), Party: uint8(rng.Intn(2))}
			k.CWs = make([]CW, k.TreeDepth())
			cw := &k.CWs[k.TreeDepth()-1]
			rng.Read(cw.S[:])
			cw.TL, cw.TR = uint8(rng.Intn(2)), uint8(rng.Intn(2))
			gl := k.GroupSize()
			k.Final = make([]uint32, gl)
			for j := range k.Final {
				k.Final[j] = rng.Uint32()
			}

			next := make([]Seed, 2*n)
			nextT := make([]uint8, 2*n)
			StepBothBatch(prg, seeds, ts, *cw, next, nextT, nil)
			leaves := make([]uint32, 2*n*gl)
			StepLeafBatch(prg, &k, seeds, ts, leaves, nil)

			want := make([]uint32, gl)
			for i := range seeds {
				ls, lt, rs, rt := StepBoth(prg, seeds[i], ts[i], *cw)
				if next[2*i] != ls || nextT[2*i] != lt || next[2*i+1] != rs || nextT[2*i+1] != rt {
					t.Fatalf("%s n=%d cw.t=(%d,%d) node %d: StepBothBatch (%x,%d,%x,%d) != StepBoth (%x,%d,%x,%d)",
						name, n, cw.TL, cw.TR, i, next[2*i], nextT[2*i], next[2*i+1], nextT[2*i+1], ls, lt, rs, rt)
				}
				for side, c := range []struct {
					s Seed
					t uint8
				}{{ls, lt}, {rs, rt}} {
					leafValue(&k, c.s, c.t, want)
					for j, w := range want {
						if g := leaves[(2*i+side)*gl+j]; g != w {
							t.Fatalf("%s n=%d early=%d party=%d node %d side %d lane %d: StepLeafBatch %d != leafValue %d",
								name, n, k.Early, k.Party, i, side, j, g, w)
						}
					}
				}
			}
		}
	}
}

// TestExpandBatchMatchesExpand pins every PRF's native ExpandBatch to its
// scalar Expand, bit for bit, across random seeds and batch widths.
func TestExpandBatchMatchesExpand(t *testing.T) {
	rng := mrand.New(mrand.NewSource(2))
	for _, name := range allPRGNames() {
		prg, err := testPRG(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			for _, n := range []int{1, 2, 7, 64} {
				seeds := make([]Seed, n)
				for i := range seeds {
					rng.Read(seeds[i][:])
				}
				left := make([]Seed, n)
				right := make([]Seed, n)
				tl := make([]uint8, n)
				tr := make([]uint8, n)
				prg.ExpandBatch(seeds, left, right, tl, tr)
				for i := range seeds {
					wl, wr, wtl, wtr := prg.Expand(seeds[i])
					if left[i] != wl || right[i] != wr || tl[i] != wtl || tr[i] != wtr {
						t.Fatalf("n=%d i=%d: batch (%x,%x,%d,%d) != scalar (%x,%x,%d,%d)",
							n, i, left[i], right[i], tl[i], tr[i], wl, wr, wtl, wtr)
					}
				}
			}
		})
	}
}

// TestScalarExpandBatchFallback: the scalar reference loop matches the
// native batch implementations (they are both pinned to Expand).
func TestScalarExpandBatchFallback(t *testing.T) {
	prg := NewChaChaPRG()
	seeds := make([]Seed, 5)
	for i := range seeds {
		rand.Read(seeds[i][:])
	}
	l1 := make([]Seed, 5)
	r1 := make([]Seed, 5)
	tl1 := make([]uint8, 5)
	tr1 := make([]uint8, 5)
	l2 := make([]Seed, 5)
	r2 := make([]Seed, 5)
	tl2 := make([]uint8, 5)
	tr2 := make([]uint8, 5)
	prg.ExpandBatch(seeds, l1, r1, tl1, tr1)
	scalarExpandBatch(prg, seeds, l2, r2, tl2, tr2)
	for i := range seeds {
		if l1[i] != l2[i] || r1[i] != r2[i] || tl1[i] != tl2[i] || tr1[i] != tr2[i] {
			t.Fatalf("i=%d: native and scalar fallback disagree", i)
		}
	}
}

// TestStepBothBatchMatchesStepBoth: a batched frontier advance produces the
// children StepBoth produces, in leaf order, control bits corrected.
func TestStepBothBatchMatchesStepBoth(t *testing.T) {
	rng := mrand.New(mrand.NewSource(3))
	for _, name := range allPRGNames() {
		prg, err := testPRG(name)
		if err != nil {
			t.Fatal(err)
		}
		const n = 9
		seeds := make([]Seed, n)
		ts := make([]uint8, n)
		for i := range seeds {
			rng.Read(seeds[i][:])
			ts[i] = uint8(i & 1)
		}
		var cw CW
		rng.Read(cw.S[:])
		cw.TL, cw.TR = 1, 0
		next := make([]Seed, 2*n)
		nextT := make([]uint8, 2*n)
		var sc BatchScratch
		StepBothBatch(prg, seeds, ts, cw, next, nextT, &sc)
		for i := 0; i < n; i++ {
			ls, lt, rs, rt := StepBoth(prg, seeds[i], ts[i], cw)
			if next[2*i] != ls || next[2*i+1] != rs || nextT[2*i] != lt || nextT[2*i+1] != rt {
				t.Fatalf("%s: node %d batch step disagrees with StepBoth", name, i)
			}
		}
	}
}

// TestEvalFullIntoMatchesEvalFull: the scratch-backed expansion reproduces
// EvalFull's fresh scratch, and a reused scratch stays correct across
// differently sized and shaped keys.
func TestEvalFullIntoMatchesEvalFull(t *testing.T) {
	rng := mrand.New(mrand.NewSource(5))
	prg := NewSipPRG()
	var sc FrontierScratch
	for _, shape := range []struct{ bits, early int }{{6, 2}, {8, 2}, {5, 0}, {7, 1}, {4, 2}, {1, 0}} {
		k0, k1, err := GenEarly(prg, uint64(rng.Intn(1<<shape.bits)), shape.bits, rng.Uint32(), shape.early, rng)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []*Key{&k0, &k1} {
			want := EvalFull(prg, k)
			got := make([]uint32, len(want))
			EvalFullInto(prg, k, got, &sc)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("bits=%d early=%d party=%d: EvalFullInto[%d]=%d want %d",
						shape.bits, shape.early, k.Party, i, got[i], want[i])
				}
			}
		}
	}
}

// TestLeafValuesIntoMatchesLeafValueScalar: the frontier-wide conversion is
// the reference group conversion, one word per seed on full-depth keys and
// whole groups on early-terminated ones; LeafRangeInto agrees on every
// sub-range.
func TestLeafValuesIntoMatchesLeafValueScalar(t *testing.T) {
	rng := mrand.New(mrand.NewSource(6))
	prg := NewAESPRG()
	k0, k1, err := GenEarly(prg, 11, 5, 9, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []*Key{&k0, &k1} {
		const n = 8
		seeds := make([]Seed, n)
		ts := make([]uint8, n)
		for i := range seeds {
			rng.Read(seeds[i][:])
			ts[i] = uint8(i & 1)
		}
		got := make([]uint32, n)
		LeafValuesInto(k, seeds, ts, got)
		for i := range seeds {
			var want [1]uint32
			if leafValue(k, seeds[i], ts[i], want[:]); got[i] != want[0] {
				t.Fatalf("party=%d leaf %d: %d want %d", k.Party, i, got[i], want[0])
			}
		}
	}
	e0, e1, err := GenEarly(prg, 11, 5, 9, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []*Key{&e0, &e1} {
		const n = 8
		gs := k.GroupSize()
		seeds := make([]Seed, n)
		ts := make([]uint8, n)
		for i := range seeds {
			rng.Read(seeds[i][:])
			ts[i] = uint8(i & 1)
		}
		got := make([]uint32, n*gs)
		LeafValuesInto(k, seeds, ts, got)
		for i := range seeds {
			var group [4]uint32
			for sub, want := range leafValue(k, seeds[i], ts[i], group[:]) {
				if got[i*gs+sub] != want {
					t.Fatalf("party=%d node %d sub %d: %d want %d", k.Party, i, sub, got[i*gs+sub], want)
				}
			}
		}
		// Every clipped sub-range of the frontier converts identically.
		total := uint64(n * gs)
		for _, r := range [][2]uint64{{0, total}, {0, 1}, {3, 5}, {1, total - 3}, {total - 1, total}} {
			sub := make([]uint32, r[1]-r[0])
			LeafRangeInto(k, seeds, ts, r[0], r[1], sub)
			for j := r[0]; j < r[1]; j++ {
				if sub[j-r[0]] != got[j] {
					t.Fatalf("party=%d LeafRangeInto[%d,%d): mismatch at leaf %d", k.Party, r[0], r[1], j)
				}
			}
		}
	}
}

// TestLeafRangeIntoClipSweep pins the branch-free LeafRangeInto to the
// reference leafValue for every [lo, hi) of a small frontier — every head
// and tail clip offset, ranges inside one group, empty ranges — at every
// early-termination depth and both parties, with a canary after dst.
func TestLeafRangeIntoClipSweep(t *testing.T) {
	rng := randv2.New(randv2.NewPCG(17, 0x636c6970))
	for _, early := range []int{0, 1, 2} {
		for party := uint8(0); party < 2; party++ {
			k := Key{Bits: 12, Early: early, Party: party, Final: make([]uint32, 1<<early)}
			for j := range k.Final {
				k.Final[j] = rng.Uint32()
			}
			const n = 5
			gs := uint64(k.GroupSize())
			seeds := make([]Seed, n)
			ts := make([]uint8, n)
			want := make([]uint32, n*gs)
			for i := range seeds {
				for j := range seeds[i] {
					seeds[i][j] = byte(rng.Uint32())
				}
				ts[i] = uint8(rng.Uint32() & 1)
				leafValue(&k, seeds[i], ts[i], want[uint64(i)*gs:])
			}
			const canary = 0xdeadbeef
			got := make([]uint32, n*gs+1)
			for lo := uint64(0); lo <= n*gs; lo++ {
				for hi := lo; hi <= n*gs; hi++ {
					got[hi-lo] = canary
					LeafRangeInto(&k, seeds, ts, lo, hi, got[:hi-lo])
					for j := lo; j < hi; j++ {
						if got[j-lo] != want[j] {
							t.Fatalf("early=%d party=%d [%d,%d): leaf %d is %#x, leafValue says %#x",
								early, party, lo, hi, j, got[j-lo], want[j])
						}
					}
					if got[hi-lo] != canary {
						t.Fatalf("early=%d party=%d [%d,%d): wrote past %d values", early, party, lo, hi, hi-lo)
					}
				}
			}
		}
	}
}

// TestExpandBatchAllocs: once the scratch is warm, a frontier advance must
// not allocate — this is the tentpole's zero-allocation PRG contract. The
// sha256 PRF hoists its digest per call (a handful of allocations per
// batch, not per node), so it gets a small per-call budget.
func TestExpandBatchAllocs(t *testing.T) {
	const n = 128
	seeds := make([]Seed, n)
	for i := range seeds {
		rand.Read(seeds[i][:])
	}
	left := make([]Seed, n)
	right := make([]Seed, n)
	tl := make([]uint8, n)
	tr := make([]uint8, n)
	budgets := map[string]float64{"aes128": 0, "chacha20": 0, "siphash": 0, "highway": 0, "sha256": 4}
	for _, name := range allPRGNames() {
		prg, err := testPRG(name)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			prg.ExpandBatch(seeds, left, right, tl, tr)
		})
		if allocs > budgets[name] {
			t.Errorf("%s: ExpandBatch of %d nodes allocates %.1f/call, budget %.0f", name, n, allocs, budgets[name])
		}
	}
}

// TestUnmarshalReusesCapacity: unmarshaling into a key that already holds
// big-enough slices must not allocate new ones (the engine's key pool
// relies on this).
func TestUnmarshalReusesCapacity(t *testing.T) {
	prg := NewAESPRG()
	rng := mrand.New(mrand.NewSource(7))
	k0, _, err := Gen(prg, 3, 10, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := k0.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var k Key
	if err := k.UnmarshalBinary(raw); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := k.UnmarshalBinary(raw); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state UnmarshalBinary allocates %.1f/call, want 0", allocs)
	}
	// And the reused key still round-trips.
	raw2, err := k.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if string(raw2) != string(raw) {
		t.Error("reused key does not round-trip")
	}
}
