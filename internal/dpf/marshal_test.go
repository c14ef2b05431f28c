package dpf

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// TestKeyRoundTrip: marshal → unmarshal must reproduce the key, in the
// served wire format at the declared size: Gen's keys at KeyBytes, and full-depth keys.
func TestKeyRoundTrip(t *testing.T) {
	prg := NewAESPRG()
	rng := testRand(31)
	for _, bits := range []int{1, 5, 12, 20} {
		for _, early := range []int{-1, 0} { // -1 = Gen's default depth
			var k0, k1 Key
			var err error
			if early < 0 {
				k0, k1, err = Gen(prg, uint64(bits), bits, 1, rng)
			} else {
				k0, k1, err = GenEarly(prg, uint64(bits), bits, 1, early, rng)
			}
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []*Key{&k0, &k1} {
				raw, err := k.MarshalBinary()
				if err != nil {
					t.Fatalf("marshal(bits=%d,early=%d): %v", bits, k.Early, err)
				}
				if len(raw) != keySize(bits, k.Early) {
					t.Fatalf("size %d != keySize %d", len(raw), keySize(bits, k.Early))
				}
				if early < 0 && len(raw) != KeyBytes(bits) {
					t.Fatalf("Gen's key is %d bytes, KeyBytes %d", len(raw), KeyBytes(bits))
				}
				if v := WireVersion(raw); v != ServedWire {
					t.Fatalf("WireVersion = %d, want %d", v, ServedWire)
				}
				var got Key
				if err := got.UnmarshalBinary(raw); err != nil {
					t.Fatalf("unmarshal: %v", err)
				}
				if got.Bits != k.Bits || got.Early != k.Early || got.Party != k.Party || got.Root != k.Root ||
					!slices.Equal(got.CWs, k.CWs) || !slices.Equal(got.Final, k.Final) {
					t.Fatalf("bits=%d early=%d: key changed in a round trip", bits, k.Early)
				}
			}
		}
	}
}

// TestMarshaledSizeTable: keySize is the exact length of what
// MarshalBinary emits for every depth and early-termination depth a key
// can have, a shape no key can have refuses to marshal, and KeyBytes is
// the served depth's size.
func TestMarshaledSizeTable(t *testing.T) {
	var seed Seed
	for bits := 1; bits <= MaxBits; bits++ {
		for early := 0; early <= MaxEarlyBits; early++ {
			k := Key{Bits: bits, Early: early, Root: seed,
				CWs: make([]CW, max(bits-early, 0)), Final: make([]uint32, 1<<uint(early))}
			for i := range k.CWs {
				k.CWs[i] = CW{S: seed, TL: uint8(i & 1), TR: uint8(i >> 1 & 1)}
			}
			raw, err := k.MarshalBinary()
			if early >= bits {
				if err == nil {
					t.Fatalf("bits=%d early=%d: impossible shape marshaled", bits, early)
				}
				continue
			}
			if err != nil {
				t.Fatalf("bits=%d early=%d: %v", bits, early, err)
			}
			if want := keySize(bits, early); len(raw) != want {
				t.Fatalf("bits=%d early=%d: %d bytes, keySize %d", bits, early, len(raw), want)
			}
		}
		if KeyBytes(bits) != keySize(bits, DefaultEarly(bits)) {
			t.Fatalf("bits=%d: KeyBytes %d is not the served depth's size", bits, KeyBytes(bits))
		}
	}
	// The served key on a 2^16-row table: 16 bytes and two control bits
	// per walked level. A 2-row table walks its one level in full.
	for _, c := range []struct{ bits, want int }{{16, 266}, {1, 43}} {
		if got := KeyBytes(c.bits); got != c.want {
			t.Errorf("KeyBytes(%d) = %d, want %d", c.bits, got, c.want)
		}
	}
}

// TestWireVersionsRoundTrip: one early-terminated key in the v2 layout
// (legacyMarshal) and in the served one carries the same key — v2 parsed
// by the reference decoder marshals to the served bytes — while
// UnmarshalBinary refuses the v2 bytes naming both versions; a served
// key's packed control bits survive every pattern.
func TestWireVersionsRoundTrip(t *testing.T) {
	prg := NewAESPRG()
	k0, k1, err := Gen(prg, 12345, 16, 7, testRand(41))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []*Key{&k0, &k1} {
		served, err := k.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		v2 := legacyMarshal(k)
		if WireVersion(v2) != 2 || len(v2) != 279 || WireVersion(served) != ServedWire || len(served) != 266 {
			t.Fatalf("v2 is version %d in %d bytes, the served key version %d in %d", WireVersion(v2), len(v2), WireVersion(served), len(served))
		}
		var parsed Key
		if err := parsed.UnmarshalBinary(served); err != nil {
			t.Fatal(err)
		}
		old, err := legacyUnmarshal(v2)
		if err != nil {
			t.Fatal(err)
		}
		if again, err := old.MarshalBinary(); err != nil || !bytes.Equal(again, served) {
			t.Fatalf("the v2 key does not marshal to its served bytes: %v", err)
		}
		a, _ := evalAt(prg, &parsed, 12345)
		b, _ := evalAt(prg, &old, 12345)
		if a != b {
			t.Fatal("v2 and the served key evaluate differently")
		}
		err = new(Key).UnmarshalBinary(v2)
		if err == nil || !strings.Contains(err.Error(), "key wire v2") || !strings.Contains(err.Error(), fmt.Sprintf("serves key wire v%d", ServedWire)) {
			t.Fatalf("v2 bytes: %v, want a refusal naming both versions", err)
		}
		// A v3 key has the served layout, but its Final belongs to the
		// retired leaf conversion: it is refused by name, not evaluated.
		v3 := bytes.Clone(served)
		v3[0] = 0x03
		if WireVersion(v3) != 3 {
			t.Fatalf("a 0xDF03 magic reads as version %d", WireVersion(v3))
		}
		err = new(Key).UnmarshalBinary(v3)
		if err == nil || err.Error() != "dpf: unmarshal: key wire v3; this build serves key wire v4" {
			t.Fatalf("v3 bytes: %v, want a refusal naming v3 and v4", err)
		}
	}
	// Every control-bit pattern at every position of a 5-level walk (one
	// full tbits byte and one padded one).
	for pattern := 0; pattern < 1<<10; pattern++ {
		k := Key{Bits: 7, Early: 2, CWs: make([]CW, 5), Final: make([]uint32, 4)}
		for i := range k.CWs {
			k.CWs[i].TL, k.CWs[i].TR = uint8(pattern>>(2*i)&1), uint8(pattern>>(2*i+1)&1)
		}
		raw, err := k.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var got Key
		if err := got.UnmarshalBinary(raw); err != nil {
			t.Fatalf("pattern %#x: %v", pattern, err)
		}
		if !slices.Equal(got.CWs, k.CWs) {
			t.Fatalf("pattern %#x: control bits %v, want %v", pattern, got.CWs, k.CWs)
		}
	}
}

// TestV3Canonical: a served key (v4, in v3's layout) has one encoding. Nonzero padding bits after
// the packed control bits, a lanes byte other than 1, and a header whose
// depth does not match the key's size are all refused.
func TestV3Canonical(t *testing.T) {
	k0, _, err := Gen(NewAESPRG(), 3, 7, 1, testRand(43)) // 5 levels: tbits byte 6 bits used
	if err != nil {
		t.Fatal(err)
	}
	raw, err := k0.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	tbits := len(raw) - 16 - 1 // the one tbits byte, before the 4-lane final
	for _, tc := range []struct {
		name string
		mut  func(b []byte)
		want string
	}{
		{"padding bit 6", func(b []byte) { b[tbits] |= 1 << 6 }, "padding"},
		{"padding bit 7", func(b []byte) { b[tbits] |= 1 << 7 }, "padding"},
		{"lanes 0", func(b []byte) { b[5] = 0 }, "bad lanes 0"},
		{"lanes 2", func(b []byte) { b[5] = 2 }, "bad lanes 2"},
		{"lanes 255", func(b []byte) { b[5] = 255 }, "bad lanes 255"},
		{"early 0", func(b []byte) { b[4] = 0 }, "size"},
		{"early 3", func(b []byte) { b[4] = 3 }, "early-termination depth"},
	} {
		mut := bytes.Clone(raw)
		tc.mut(mut)
		var k Key
		if err := k.UnmarshalBinary(mut); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: %v, want a refusal naming %q", tc.name, err, tc.want)
		}
	}
	var k Key
	if err := k.UnmarshalBinary(raw); err != nil {
		t.Fatalf("unmutated key refused: %v", err)
	}
}

// TestUnmarshalRejectsGarbage: malformed wire data must error, not panic.
func TestUnmarshalRejectsGarbage(t *testing.T) {
	var k Key
	cases := map[string][]byte{
		"empty":     {},
		"short":     make([]byte, 10),
		"bad magic": append([]byte{0xff, 0xff}, make([]byte, 30)...),
	}
	for name, data := range cases {
		if err := k.UnmarshalBinary(data); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
	// Corrupt a valid key in every byte position; none may panic, and
	// header corruptions must error.
	prg := NewAESPRG()
	k0, _, err := Gen(prg, 3, 4, 1, testRand(3))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := k0.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for i := range raw {
		mut := make([]byte, len(raw))
		copy(mut, raw)
		mut[i] ^= 0xff
		var kk Key
		_ = kk.UnmarshalBinary(mut) // must not panic
	}
	// Truncations must error.
	for cut := 1; cut < len(raw); cut++ {
		var kk Key
		if err := kk.UnmarshalBinary(raw[:cut]); err == nil {
			t.Errorf("truncation to %d bytes accepted", cut)
		}
	}
}

// TestMarshalValidation: inconsistent keys must refuse to marshal.
func TestMarshalValidation(t *testing.T) {
	bad := []Key{
		{Bits: 0},
		{Bits: MaxBits + 1},
		{Bits: 3, CWs: make([]CW, 2), Final: []uint32{1}},
		{Bits: 3, CWs: make([]CW, 3), Final: []uint32{1, 2}},
		{Bits: 3, Early: 3, Final: make([]uint32, 8)},
	}
	for i, k := range bad {
		if _, err := k.MarshalBinary(); err == nil {
			t.Errorf("case %d: expected marshal error", i)
		}
	}
}

// TestQuickRoundTripStillEvaluates: after a round trip the key must still
// satisfy the point-function property at alpha.
func TestQuickRoundTripStillEvaluates(t *testing.T) {
	prg := NewChaChaPRG()
	rng := testRand(77)
	const bits = 10
	f := func(alphaRaw uint16, beta uint32) bool {
		alpha := uint64(alphaRaw) % (1 << bits)
		k0, k1, err := Gen(prg, alpha, bits, beta, rng)
		if err != nil {
			return false
		}
		raw0, _ := k0.MarshalBinary()
		raw1, _ := k1.MarshalBinary()
		var r0, r1 Key
		if r0.UnmarshalBinary(raw0) != nil || r1.UnmarshalBinary(raw1) != nil {
			return false
		}
		v0, e0 := evalAt(prg, &r0, alpha)
		v1, e1 := evalAt(prg, &r1, alpha)
		if e0 != nil || e1 != nil {
			return false
		}
		return v0+v1 == beta
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestKeySizeIsLogarithmic pins the O(log L) communication claim: four
// more levels of a full-depth walk add exactly 65 bytes, four 16-byte
// seeds and one byte of packed control bits.
func TestKeySizeIsLogarithmic(t *testing.T) {
	for bits := 1; bits+4 <= MaxBits; bits++ {
		if keySize(bits+4, 0)-keySize(bits, 0) != 65 {
			t.Fatalf("key growth at bits=%d is not 65 bytes per 4 levels", bits)
		}
	}
	// A 1M-entry scalar key is well under 1 KB — the paper quotes 1.25 KB
	// for its codeword format; ours is the tighter BGI15 layout.
	if s := keySize(20, 0); s > 1280 {
		t.Errorf("1M-entry key is %d bytes, want <= 1280", s)
	}
}

// TestKeyShareBalance checks that a key share leaks nothing bit by bit. A
// server sees one party's marshaled key. Every bit of it must be a fair
// coin whatever α is, except those the layout fixes: the header, the zero
// padding after the control bits, and the low bit of each correction seed
// (the slot a control bit was peeled from, always zero). For 4096 keys
// per α — α = 0, N−1 and one seeded random index — on a 2^16-row table
// (early 2) and a 2-row one (early 0, the layout only tables of 2 rows are
// served), each free bit's count of ones over each party's keys must lie
// within 6σ of the binomial mean, and each fixed bit must be constant.
func TestKeyShareBalance(t *testing.T) {
	const n = 4096
	prg := NewAESPRG()
	rng := testRand(47)
	bound := 6 * math.Sqrt(n*0.25)
	for _, bits := range []int{16, 1} {
		d := bits - DefaultEarly(bits)
		seeds, tbits := 22, 22+16*d // the first correction seed and control-bit byte
		final := tbits + (d+3)/4
		// field names the key field a bit lies in and whether the layout
		// fixes it.
		field := func(bit int) (string, bool) {
			at, b := bit/8, bit%8
			switch {
			case at < 6:
				return "header", true
			case at < seeds:
				return "root seed", false
			case at < tbits:
				return fmt.Sprintf("correction seed %d", (at-seeds)/16), (at-seeds)%16 == 0 && b == 0
			case at < final:
				return "control bits", 8*(at-tbits)+b >= 2*d
			}
			return fmt.Sprintf("final word %d", (at-final)/4), false
		}
		for _, alpha := range []uint64{0, 1<<bits - 1, uint64(rng.Int63n(1 << bits))} {
			var ones [2][]int
			for party := range ones {
				ones[party] = make([]int, 8*KeyBytes(bits))
			}
			for i := 0; i < n; i++ {
				k0, k1, err := Gen(prg, alpha, bits, 1, rng)
				if err != nil {
					t.Fatal(err)
				}
				for party, k := range []*Key{&k0, &k1} {
					raw, err := k.MarshalBinary()
					if err != nil {
						t.Fatal(err)
					}
					for j, by := range raw {
						for b := 0; b < 8; b++ {
							ones[party][8*j+b] += int(by >> b & 1)
						}
					}
				}
			}
			for party, count := range ones {
				for bit, c := range count {
					name, fixed := field(bit)
					if fixed && c != 0 && c != n {
						t.Errorf("bits=%d α=%d party %d: fixed bit %d of byte %d (%s) is set in %d of %d keys",
							bits, alpha, party, bit%8, bit/8, name, c, n)
					}
					if !fixed && math.Abs(float64(c)-n/2) > bound {
						t.Errorf("bits=%d α=%d party %d: bit %d of byte %d (%s) is set in %d of %d keys, outside %d ± %.0f",
							bits, alpha, party, bit%8, bit/8, name, c, n, n/2, bound)
					}
				}
			}
		}
	}
}
