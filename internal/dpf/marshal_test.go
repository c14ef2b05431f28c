package dpf

import (
	"bytes"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// TestKeyRoundTrip: marshal → unmarshal must reproduce the key and the
// declared MarshaledSizeEarly exactly, across wire versions: the default
// Gen keys (v3 for scalar, v1 for wide betas) and explicit full-depth v1.
func TestKeyRoundTrip(t *testing.T) {
	prg := NewAESPRG()
	rng := testRand(31)
	for _, bits := range []int{1, 5, 12, 20} {
		for _, lanes := range []int{1, 4, 32} {
			for _, early := range []int{-1, 0} { // -1 = Gen's default depth
				beta := make([]uint32, lanes)
				beta[0] = 1
				var k0, k1 Key
				var err error
				if early < 0 {
					k0, k1, err = Gen(prg, uint64(bits), bits, beta, rng)
				} else {
					k0, k1, err = GenEarly(prg, uint64(bits), bits, beta, early, rng)
				}
				if err != nil {
					t.Fatal(err)
				}
				for _, k := range []*Key{&k0, &k1} {
					raw, err := k.MarshalBinary()
					if err != nil {
						t.Fatalf("marshal(bits=%d,lanes=%d,early=%d): %v", bits, lanes, k.Early, err)
					}
					if len(raw) != MarshaledSizeEarly(bits, lanes, k.Early) {
						t.Fatalf("size %d != MarshaledSizeEarly %d", len(raw), MarshaledSizeEarly(bits, lanes, k.Early))
					}
					wantVer := 1
					if k.Early > 0 {
						wantVer = 3
					}
					if v := WireVersion(raw); v != wantVer {
						t.Fatalf("WireVersion = %d, want %d", v, wantVer)
					}
					var got Key
					if err := got.UnmarshalBinary(raw); err != nil {
						t.Fatalf("unmarshal: %v", err)
					}
					if got.Bits != k.Bits || got.Lanes != k.Lanes || got.Early != k.Early || got.Party != k.Party || got.Root != k.Root {
						t.Fatal("header fields mismatch after round trip")
					}
					for i := range k.CWs {
						if got.CWs[i] != k.CWs[i] {
							t.Fatalf("CW %d mismatch", i)
						}
					}
					for i := range k.Final {
						if got.Final[i] != k.Final[i] {
							t.Fatalf("final lane %d mismatch", i)
						}
					}
				}
			}
		}
	}
}

// TestMarshaledSizeTable: MarshaledSizeEarly is the exact length of what
// MarshalBinary emits for every depth, served early-termination depth and
// lane count a key can have, and a shape no key can have refuses to
// marshal.
func TestMarshaledSizeTable(t *testing.T) {
	var seed Seed
	for bits := 1; bits <= MaxBits; bits++ {
		for early := 0; early <= MaxEarlyBits; early++ {
			for _, lanes := range []int{1, 2, 4} {
				k := Key{Bits: bits, Lanes: lanes, Early: early, Root: seed,
					CWs: make([]CW, max(bits-early, 0)), Final: make([]uint32, lanes<<uint(early))}
				for i := range k.CWs {
					k.CWs[i] = CW{S: seed, TL: uint8(i & 1), TR: uint8(i >> 1 & 1)}
				}
				raw, err := k.MarshalBinary()
				if early >= bits || early > 0 && lanes<<uint(early) > 4 {
					if err == nil {
						t.Fatalf("bits=%d early=%d lanes=%d: impossible shape marshaled", bits, early, lanes)
					}
					continue
				}
				if err != nil {
					t.Fatalf("bits=%d early=%d lanes=%d: %v", bits, early, lanes, err)
				}
				if want := MarshaledSizeEarly(bits, lanes, early); len(raw) != want {
					t.Fatalf("bits=%d early=%d lanes=%d: %d bytes, MarshaledSizeEarly %d", bits, early, lanes, len(raw), want)
				}
			}
		}
	}
	// The served scalar key on a 2^16-row table: 16 bytes and two control
	// bits per walked level.
	if got := MarshaledSizeEarly(16, 1, DefaultEarlyBits); got != 266 {
		t.Fatalf("2^16-row scalar key is %d bytes, want 266", got)
	}
}

// TestWireVersionsRoundTrip: one early-terminated key marshaled as v2 and
// as v3 parses back to the same key from either, and each re-marshals to
// its own bytes; a v3 key's packed control bits survive every pattern.
func TestWireVersionsRoundTrip(t *testing.T) {
	prg := NewAESPRG()
	k0, k1, err := Gen(prg, 12345, 16, []uint32{7}, testRand(41))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []*Key{&k0, &k1} {
		var parsed [4]Key
		for _, v := range []int{2, 3} {
			k.Wire = v
			raw, err := k.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if WireVersion(raw) != v || len(raw) != wireSize(v, 16, 1, DefaultEarlyBits) {
				t.Fatalf("v%d: version %d, %d bytes", v, WireVersion(raw), len(raw))
			}
			p := &parsed[v]
			if err := p.UnmarshalBinary(raw); err != nil {
				t.Fatalf("v%d: %v", v, err)
			}
			if p.Wire != v {
				t.Fatalf("v%d key parsed as Wire %d", v, p.Wire)
			}
			again, err := p.MarshalBinary()
			if err != nil || !bytes.Equal(again, raw) {
				t.Fatalf("v%d key does not re-marshal to its own bytes: %v", v, err)
			}
		}
		if parsed[2].Root != parsed[3].Root || !slices.Equal(parsed[2].CWs, parsed[3].CWs) ||
			!slices.Equal(parsed[2].Final, parsed[3].Final) || !slices.Equal(parsed[3].CWs, k.CWs) {
			t.Fatal("v2 and v3 carry different keys")
		}
		v0, _ := EvalAt(prg, &parsed[2], 12345)
		v1, _ := EvalAt(prg, &parsed[3], 12345)
		if v0[0] != v1[0] {
			t.Fatal("v2 and v3 evaluate differently")
		}
	}
	// Every control-bit pattern at every position of a 5-level walk (one
	// full tbits byte and one padded one).
	for pattern := 0; pattern < 1<<10; pattern++ {
		k := Key{Bits: 7, Lanes: 1, Early: 2, CWs: make([]CW, 5), Final: make([]uint32, 4)}
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
	// A wire version that cannot carry the key's depth refuses to marshal.
	for _, tc := range []struct{ early, wire int }{{0, 2}, {0, 3}, {2, 1}, {2, 4}} {
		bits := 5
		k := Key{Bits: bits, Lanes: 1, Early: tc.early, Wire: tc.wire,
			CWs: make([]CW, bits-tc.early), Final: make([]uint32, 1<<uint(tc.early))}
		if _, err := k.MarshalBinary(); err == nil {
			t.Errorf("early=%d marshaled as wire v%d", tc.early, tc.wire)
		}
	}
}

// TestV3Canonical: a v3 key has one encoding. Nonzero padding bits after
// the packed control bits, a lanes byte that is zero or overfills the
// terminal group, and a v3 header claiming full depth are all refused.
func TestV3Canonical(t *testing.T) {
	k0, _, err := Gen(NewAESPRG(), 3, 7, []uint32{1}, testRand(43)) // 5 levels: tbits byte 6 bits used
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
		{"lanes 0", func(b []byte) { b[5] = 0 }, "bad lanes"},
		{"lanes 2 at early 2", func(b []byte) { b[5] = 2 }, "exceeds"},
		{"lanes 255", func(b []byte) { b[5] = 255 }, "exceeds"},
		{"early 0", func(b []byte) { b[4] = 0 }, "early-termination depth"},
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
	k0, _, err := Gen(prg, 3, 4, []uint32{1}, testRand(3))
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
		{Bits: 0, Lanes: 1},
		{Bits: MaxBits + 1, Lanes: 1},
		{Bits: 3, Lanes: 1, CWs: make([]CW, 2), Final: []uint32{1}},
		{Bits: 3, Lanes: 2, CWs: make([]CW, 3), Final: []uint32{1}},
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
		k0, k1, err := Gen(prg, alpha, bits, []uint32{beta}, rng)
		if err != nil {
			return false
		}
		raw0, _ := k0.MarshalBinary()
		raw1, _ := k1.MarshalBinary()
		var r0, r1 Key
		if r0.UnmarshalBinary(raw0) != nil || r1.UnmarshalBinary(raw1) != nil {
			return false
		}
		v0, e0 := EvalAt(prg, &r0, alpha)
		v1, e1 := EvalAt(prg, &r1, alpha)
		if e0 != nil || e1 != nil {
			return false
		}
		return v0[0]+v1[0] == beta
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestKeySizeIsLogarithmic pins the O(log L) communication claim: doubling
// the domain adds exactly 17 bytes.
func TestKeySizeIsLogarithmic(t *testing.T) {
	for bits := 1; bits < MaxBits; bits++ {
		if MarshaledSizeEarly(bits+1, 1, 0)-MarshaledSizeEarly(bits, 1, 0) != 17 {
			t.Fatalf("key growth at bits=%d is not 17 bytes/level", bits)
		}
	}
	// A 1M-entry scalar key is well under 1 KB — the paper quotes 1.25 KB
	// for its codeword format; ours is the tighter BGI15 layout.
	if s := MarshaledSizeEarly(20, 1, 0); s > 1280 {
		t.Errorf("1M-entry key is %d bytes, want <= 1280", s)
	}
}
