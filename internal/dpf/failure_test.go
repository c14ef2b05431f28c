package dpf

import (
	"sync"
	"testing"
)

// TestCorruptedCorrectionWordBreaksSharing: failure injection — flipping
// any correction-word bit must destroy the point-function property
// somewhere in the domain (a malicious or buggy party cannot silently
// tamper with a key and keep the functionality).
func TestCorruptedCorrectionWordBreaksSharing(t *testing.T) {
	prg := NewAESPRG()
	const bits = 6
	const alpha = 37
	k0, k1, err := Gen(prg, alpha, bits, 1, testRand(41))
	if err != nil {
		t.Fatal(err)
	}
	// A party only applies a level's correction word on nodes whose control
	// bit is 1 (party 0's root bit is 0, so corrupting its level-0 CW is a
	// no-op for it) — so corrupt each party in turn and require the damage
	// to show on at least one side per level. The default keys terminate
	// early, so there are TreeDepth correction words, not bits.
	corrupt := func(k Key, level int) Key {
		mut := k
		mut.CWs = make([]CW, len(k.CWs))
		copy(mut.CWs, k.CWs)
		mut.CWs[level].S[3] ^= 0x40
		return mut
	}
	check := func(a, b *Key) bool {
		for j := uint64(0); j < 1<<bits; j++ {
			v0, _ := evalAt(prg, a, j)
			v1, _ := evalAt(prg, b, j)
			want := uint32(0)
			if j == alpha {
				want = 1
			}
			if v0+v1 != want {
				return true // broken, as expected
			}
		}
		return false
	}
	for level := 0; level < k0.TreeDepth(); level++ {
		m0 := corrupt(k0, level)
		m1 := corrupt(k1, level)
		if !check(&m0, &k1) && !check(&k0, &m1) {
			t.Errorf("corrupting CW level %d on either party left the point function intact", level)
		}
	}
}

// TestCorruptedFinalCWShiftsOnlyControlledLeaves: tampering the output
// correction word perturbs exactly the leaves whose control bit is set —
// the additive structure a malicious server could exploit, which is why
// internal/integrity exists.
func TestCorruptedFinalCWShiftsOnlyControlledLeaves(t *testing.T) {
	prg := NewAESPRG()
	// Early-terminated keys shift whole terminal groups together, so use a
	// domain with enough groups (2^6) that an all-ones/all-zeros control
	// frontier is vanishingly unlikely.
	const bits = 8
	k0, _, err := Gen(prg, 9, bits, 1, testRand(42))
	if err != nil {
		t.Fatal(err)
	}
	// Shift every slot of the terminal-group final CW (the default key
	// carries one slot per leaf of the group).
	mut := k0
	mut.Final = make([]uint32, len(k0.Final))
	for i := range mut.Final {
		mut.Final[i] = k0.Final[i] + 100
	}
	changed := 0
	for j := uint64(0); j < 1<<bits; j++ {
		a, _ := evalAt(prg, &k0, j)
		b, _ := evalAt(prg, &mut, j)
		if a != b {
			changed++
			if diff := b - a; diff != 100 && diff != ^uint32(99) {
				t.Fatalf("leaf %d shifted by %d, want ±100", j, diff)
			}
		}
	}
	if changed == 0 {
		t.Error("final-CW tampering changed nothing; control bits broken")
	}
	if changed == 1<<bits {
		t.Error("every leaf has control bit 1; expansion not pseudorandom")
	}
}

// TestConcurrentEvalSharedKey: a Key is read-only after Gen; concurrent
// evaluation must be safe and consistent (run with -race to check).
func TestConcurrentEvalSharedKey(t *testing.T) {
	prg := NewChaChaPRG()
	const bits = 8
	k0, _, err := Gen(prg, 100, bits, 7, testRand(43))
	if err != nil {
		t.Fatal(err)
	}
	ref := EvalFull(prg, &k0)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				j := (seed*31 + uint64(i)*17) % (1 << bits)
				var v [1]uint32
				if err := EvalRange(prg, &k0, j, j+1, v[:]); err != nil {
					t.Error(err)
					return
				}
				if v[0] != ref[j] {
					t.Errorf("concurrent EvalRange(%d) = %d, want %d", j, v[0], ref[j])
					return
				}
			}
		}(uint64(w))
	}
	wg.Wait()
}

// TestBitsOneDomain: the smallest tree (two leaves) works for both alphas.
func TestBitsOneDomain(t *testing.T) {
	prg := NewSipPRG()
	for alpha := uint64(0); alpha < 2; alpha++ {
		k0, k1, err := Gen(prg, alpha, 1, 5, testRand(45))
		if err != nil {
			t.Fatal(err)
		}
		for j := uint64(0); j < 2; j++ {
			v0, _ := evalAt(prg, &k0, j)
			v1, _ := evalAt(prg, &k1, j)
			want := uint32(0)
			if j == alpha {
				want = 5
			}
			if v0+v1 != want {
				t.Fatalf("alpha=%d j=%d: got %d want %d", alpha, j, v0+v1, want)
			}
		}
	}
}
