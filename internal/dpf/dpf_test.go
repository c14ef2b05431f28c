package dpf

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// testRand returns a deterministic randomness source for Gen.
func testRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func allPRGs(t testing.TB) []PRG {
	t.Helper()
	var prgs []PRG
	for _, name := range allPRGNames() {
		p, err := testPRG(name)
		if err != nil {
			t.Fatalf("testPRG(%q): %v", name, err)
		}
		prgs = append(prgs, p)
	}
	return prgs
}

// TestPointFunctionCorrectness checks the defining DPF property for every
// PRG: shares sum to beta exactly at alpha and to zero elsewhere.
func TestPointFunctionCorrectness(t *testing.T) {
	for _, prg := range allPRGs(t) {
		prg := prg
		t.Run(prg.Name(), func(t *testing.T) {
			t.Parallel()
			rng := testRand(42)
			for _, bits := range []int{1, 2, 3, 5, 8, 10} {
				n := uint64(1) << uint(bits)
				alpha := uint64(rng.Int63n(int64(n)))
				k0, k1, err := Gen(prg, alpha, bits, 1, rng)
				if err != nil {
					t.Fatalf("Gen(bits=%d): %v", bits, err)
				}
				for j := uint64(0); j < n; j++ {
					v0, err := evalAt(prg, &k0, j)
					if err != nil {
						t.Fatalf("evalAt: %v", err)
					}
					v1, err := evalAt(prg, &k1, j)
					if err != nil {
						t.Fatalf("evalAt: %v", err)
					}
					want := uint32(0)
					if j == alpha {
						want = 1
					}
					if sum := v0 + v1; sum != want {
						t.Fatalf("bits=%d alpha=%d: sum at %d = %d, want %d", bits, alpha, j, sum, want)
					}
				}
			}
		})
	}
}

// TestEvalFullMatchesEvalAt checks full-domain expansion against the
// pointwise reference walk for each PRG.
func TestEvalFullMatchesEvalAt(t *testing.T) {
	for _, prg := range allPRGs(t) {
		prg := prg
		t.Run(prg.Name(), func(t *testing.T) {
			t.Parallel()
			rng := testRand(99)
			const bits = 9
			k0, _, err := Gen(prg, 123, bits, 5, rng)
			if err != nil {
				t.Fatal(err)
			}
			full := EvalFull(prg, &k0)
			for j := uint64(0); j < 1<<bits; j++ {
				if at, _ := evalAt(prg, &k0, j); full[j] != at {
					t.Fatalf("j=%d: full=%d at=%d", j, full[j], at)
				}
			}
		})
	}
}

// TestEvalRange checks the pruned DFS range evaluation against EvalFull,
// including shard boundaries that are not powers of two.
func TestEvalRange(t *testing.T) {
	prg := NewChaChaPRG()
	rng := testRand(4)
	const bits = 10
	const n = 1 << bits
	k0, _, err := Gen(prg, 700, bits, 9, rng)
	if err != nil {
		t.Fatal(err)
	}
	full := EvalFull(prg, &k0)
	for _, r := range [][2]uint64{{0, n}, {0, 1}, {n - 1, n}, {13, 509}, {512, 1024}, {511, 513}, {5, 5}} {
		lo, hi := r[0], r[1]
		out := make([]uint32, hi-lo)
		if err := EvalRange(prg, &k0, lo, hi, out); err != nil {
			t.Fatalf("EvalRange(%d,%d): %v", lo, hi, err)
		}
		for j := lo; j < hi; j++ {
			if out[j-lo] != full[j] {
				t.Fatalf("range [%d,%d): mismatch at %d", lo, hi, j)
			}
		}
	}
	if err := EvalRange(prg, &k0, 10, 5, nil); err == nil {
		t.Fatal("EvalRange with lo>hi should fail")
	}
	if err := EvalRange(prg, &k0, 0, n+1, make([]uint32, n+1)); err == nil {
		t.Fatal("EvalRange beyond domain should fail")
	}
	if err := EvalRange(prg, &k0, 0, n, make([]uint32, 1)); err == nil {
		t.Fatal("EvalRange with short buffer should fail")
	}
}

// TestShardedSumEqualsFull verifies the multi-GPU sharding claim (§3.2.7):
// evaluating disjoint ranges and concatenating equals the full evaluation.
func TestShardedSumEqualsFull(t *testing.T) {
	prg := NewAESPRG()
	rng := testRand(11)
	const bits = 8
	const n = 1 << bits
	k0, _, err := Gen(prg, 200, bits, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	full := EvalFull(prg, &k0)
	const shards = 3 // deliberately not a divisor of n
	got := make([]uint32, 0, n)
	for s := 0; s < shards; s++ {
		lo := uint64(s) * n / shards
		hi := uint64(s+1) * n / shards
		buf := make([]uint32, hi-lo)
		if err := EvalRange(prg, &k0, lo, hi, buf); err != nil {
			t.Fatal(err)
		}
		got = append(got, buf...)
	}
	for j := range full {
		if got[j] != full[j] {
			t.Fatalf("shard mismatch at %d", j)
		}
	}
}

// TestGenValidation exercises Gen's error paths.
func TestGenValidation(t *testing.T) {
	prg := NewAESPRG()
	rng := testRand(1)
	if _, _, err := Gen(prg, 0, 0, 1, rng); err == nil {
		t.Error("bits=0 should fail")
	}
	if _, _, err := Gen(prg, 0, MaxBits+1, 1, rng); err == nil {
		t.Error("bits>MaxBits should fail")
	}
	if _, _, err := Gen(prg, 4, 2, 1, rng); err == nil {
		t.Error("alpha outside domain should fail")
	}
	if _, _, err := Gen(prg, 0, 2, 1, bytes.NewReader(nil)); err == nil {
		t.Error("exhausted randomness should fail")
	}
}

// TestEvalAtValidation exercises the bounds checks of the reference walk
// and of EvalRange at the last leaf and one past it.
func TestEvalAtValidation(t *testing.T) {
	prg := NewAESPRG()
	k0, _, err := Gen(prg, 1, 3, 1, testRand(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := evalAt(prg, &k0, 8); err == nil {
		t.Error("index outside domain should fail")
	}
	var v [1]uint32
	if err := EvalRange(prg, &k0, 7, 8, v[:]); err != nil {
		t.Errorf("the last leaf: %v", err)
	}
	if err := EvalRange(prg, &k0, 8, 9, v[:]); err == nil {
		t.Error("a range past the domain should fail")
	}
}

// TestQuickPointFunction is the property-based version of the correctness
// test: random (alpha, beta, probe) triples over a 2^12 domain.
func TestQuickPointFunction(t *testing.T) {
	prg := NewSipPRG()
	rng := testRand(1234)
	const bits = 12
	f := func(alphaRaw, probeRaw uint16, beta uint32) bool {
		alpha := uint64(alphaRaw) % (1 << bits)
		probe := uint64(probeRaw) % (1 << bits)
		k0, k1, err := Gen(prg, alpha, bits, beta, rng)
		if err != nil {
			return false
		}
		v0, err0 := evalAt(prg, &k0, probe)
		v1, err1 := evalAt(prg, &k1, probe)
		if err0 != nil || err1 != nil {
			return false
		}
		sum := v0 + v1
		if probe == alpha {
			return sum == beta
		}
		return sum == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickLinearity: DPFs are linear — the share-sum of two independent
// point functions evaluates to the sum of the points. This is the property
// the PIR matrix-vector reduction and the multi-GPU summation rely on.
func TestQuickLinearity(t *testing.T) {
	prg := NewAESPRG()
	rng := testRand(777)
	const bits = 8
	f := func(a1, a2 uint8, b1, b2 uint32) bool {
		k10, k11, err := Gen(prg, uint64(a1), bits, b1, rng)
		if err != nil {
			return false
		}
		k20, k21, err := Gen(prg, uint64(a2), bits, b2, rng)
		if err != nil {
			return false
		}
		// Sum of all four full evaluations must equal b1·e_{a1} + b2·e_{a2}.
		f10 := EvalFull(prg, &k10)
		f11 := EvalFull(prg, &k11)
		f20 := EvalFull(prg, &k20)
		f21 := EvalFull(prg, &k21)
		for j := 0; j < 1<<bits; j++ {
			sum := f10[j] + f11[j] + f20[j] + f21[j]
			var want uint32
			if j == int(a1) {
				want += b1
			}
			if j == int(a2) {
				want += b2
			}
			if sum != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestSingleKeyPseudorandomness is a sanity check that one party's expansion
// looks random: leaf shares over a 2^12 domain should have roughly balanced
// bits (a grossly skewed distribution would indicate a broken construction
// leaking alpha).
func TestSingleKeyPseudorandomness(t *testing.T) {
	for _, prg := range allPRGs(t) {
		prg := prg
		t.Run(prg.Name(), func(t *testing.T) {
			t.Parallel()
			const bits = 12
			k0, _, err := Gen(prg, 1000, bits, 1, testRand(5))
			if err != nil {
				t.Fatal(err)
			}
			full := EvalFull(prg, &k0)
			ones := 0
			for _, v := range full {
				for b := 0; b < 32; b++ {
					if v>>uint(b)&1 == 1 {
						ones++
					}
				}
			}
			total := len(full) * 32
			frac := float64(ones) / float64(total)
			if frac < 0.48 || frac > 0.52 {
				t.Errorf("bit balance %.4f outside [0.48, 0.52]; expansion not pseudorandom", frac)
			}
		})
	}
}

// TestDistinctKeysPerGen: two Gens of the same alpha must not produce equal
// keys (fresh randomness per call).
func TestDistinctKeysPerGen(t *testing.T) {
	prg := NewAESPRG()
	rng := testRand(6)
	a0, _, err := Gen(prg, 3, 4, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	b0, _, err := Gen(prg, 3, 4, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	if a0.Root == b0.Root {
		t.Error("two Gens produced identical root seeds")
	}
}

// TestLeafValueScalarMatchesLeafValue pins the served one-leaf reads to
// the group conversion of a terminal the reference walk reached: each
// leaf of the group through LeafRangeInto (what EvalRange takes) and, on a
// full-depth key, LeafValuesInto's one-word-per-seed loop.
func TestLeafValueScalarMatchesLeafValue(t *testing.T) {
	prg := NewAESPRG()
	rng := testRand(8)
	const bits = 6
	for _, early := range []int{0, 1, 2} {
		k0, k1, err := GenEarly(prg, 17, bits, 42, early, rng)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []*Key{&k0, &k1} {
			s, tb := k.Root, k.Party
			for level := 0; level < k.TreeDepth(); level++ {
				s, tb = step(prg, s, tb, k.CWs[level], 1)
			}
			var buf [4]uint32
			group := leafValue(k, s, tb, buf[:])
			seeds, ts := []Seed{s}, []uint8{tb}
			for sub := range group {
				var got [1]uint32
				LeafRangeInto(k, seeds, ts, uint64(sub), uint64(sub)+1, got[:])
				if got[0] != group[sub] {
					t.Errorf("early=%d party %d sub %d: LeafRangeInto %d != group %d", early, k.Party, sub, got[0], group[sub])
				}
			}
			if early == 0 {
				var got [1]uint32
				LeafValuesInto(k, seeds, ts, got[:])
				if got[0] != group[0] {
					t.Errorf("party %d: full-depth LeafValuesInto %d != %d", k.Party, got[0], group[0])
				}
			}
		}
	}
}

// TestEarlyMatchesFullDepth is the §3.1 equivalence property: for every
// PRF and every supported termination depth, the early-terminated key
// pair computes exactly the same point function as a full-depth pair —
// shares reconstruct to beta at alpha and to zero elsewhere, via the
// reference walk, EvalFull, and EvalRange alike.
func TestEarlyMatchesFullDepth(t *testing.T) {
	for _, prg := range allPRGs(t) {
		prg := prg
		t.Run(prg.Name(), func(t *testing.T) {
			t.Parallel()
			rng := testRand(314)
			const bits = 7
			const n = uint64(1) << bits
			for _, early := range []int{0, 1, 2} {
				alpha := uint64(rng.Int63n(int64(n)))
				beta := rng.Uint32()
				k0, k1, err := GenEarly(prg, alpha, bits, beta, early, rng)
				if err != nil {
					t.Fatalf("GenEarly(early=%d): %v", early, err)
				}
				if k0.Early != early || len(k0.CWs) != bits-early || len(k0.Final) != 1<<uint(early) {
					t.Fatalf("early=%d: key shape Early=%d CWs=%d Final=%d", early, k0.Early, len(k0.CWs), len(k0.Final))
				}
				f0 := EvalFull(prg, &k0)
				f1 := EvalFull(prg, &k1)
				for j := uint64(0); j < n; j++ {
					want := uint32(0)
					if j == alpha {
						want = beta
					}
					if got := f0[j] + f1[j]; got != want {
						t.Fatalf("early=%d: EvalFull sum at %d = %d, want %d", early, j, got, want)
					}
					v0, err := evalAt(prg, &k0, j)
					if err != nil {
						t.Fatal(err)
					}
					if v0 != f0[j] {
						t.Fatalf("early=%d: evalAt(%d) = %d, EvalFull = %d", early, j, v0, f0[j])
					}
				}
				// Unaligned ranges must clip terminal groups correctly.
				for _, r := range [][2]uint64{{0, n}, {1, 2}, {3, 97}, {n - 5, n}, {alpha, alpha + 1}} {
					out := make([]uint32, r[1]-r[0])
					if err := EvalRange(prg, &k0, r[0], r[1], out); err != nil {
						t.Fatal(err)
					}
					for j := r[0]; j < r[1]; j++ {
						if out[j-r[0]] != f0[j] {
							t.Fatalf("early=%d range [%d,%d): mismatch at %d", early, r[0], r[1], j)
						}
					}
				}
			}
		})
	}
}

// TestGenEarlyValidation exercises GenEarly's added error paths and Gen's
// default depth.
func TestGenEarlyValidation(t *testing.T) {
	prg := NewAESPRG()
	rng := testRand(315)
	if _, _, err := GenEarly(prg, 0, 5, 1, -1, rng); err == nil {
		t.Error("negative early should fail")
	}
	if _, _, err := GenEarly(prg, 0, 5, 1, MaxEarlyBits+1, rng); err == nil {
		t.Error("early beyond MaxEarlyBits should fail")
	}
	if _, _, err := GenEarly(prg, 0, 2, 1, 2, rng); err == nil {
		t.Error("early leaving no tree levels should fail")
	}
	// Gen's depth: the full default, clamped on tiny domains to whatever
	// still leaves one level.
	for _, c := range []struct{ bits, want int }{{20, 2}, {3, 2}, {2, 1}, {1, 0}, {0, 0}} {
		if got := DefaultEarly(c.bits); got != c.want {
			t.Errorf("DefaultEarly(%d) = %d, want %d", c.bits, got, c.want)
		}
	}
	k0, _, err := Gen(prg, 3, 10, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	if k0.Early != MaxEarlyBits {
		t.Errorf("Gen default Early = %d, want %d", k0.Early, MaxEarlyBits)
	}
}
