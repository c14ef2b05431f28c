package dpf

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"os"
	"testing"
)

// FuzzUnmarshalBinary hammers the key parser — the one decoder that eats
// raw bytes straight off the serving path's TCP sockets — with mutated
// wire keys, seeded from every golden fixture (the v4 keys it accepts at
// full depth and early-terminated, and the v1, v2 and v3 keys it refuses
// by name) and from a served key whose last control-bit byte is padded,
// as sent and with a padding bit or its lanes byte corrupted. Any accepted input
// must re-marshal byte-identically (the wire format is canonical) and
// evaluate through EvalRange, at its first and last leaf, without
// panicking.
func FuzzUnmarshalBinary(f *testing.F) {
	raw, err := os.ReadFile(goldenPath())
	if err != nil {
		f.Fatalf("reading golden fixtures: %v", err)
	}
	var fixtures []goldenKey
	if err := json.Unmarshal(raw, &fixtures); err != nil {
		f.Fatalf("parsing golden fixtures: %v", err)
	}
	for _, g := range fixtures {
		for _, h := range []string{g.Key0, g.Key1} {
			key, err := hex.DecodeString(h)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(key)
		}
	}
	f.Add([]byte{0x01, 0xdf})
	f.Add([]byte{0x02, 0xdf, 40, 1, 2})
	prg := NewAESPRG()
	padded, _, err := Gen(prg, 3, 7, 1, testRand(44))
	if err != nil {
		f.Fatal(err)
	}
	served, err := padded.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(served)
	for _, mut := range []func(b []byte){
		func(b []byte) { b[len(b)-17] |= 0x80 }, // a padding bit of the tbits byte
		func(b []byte) { b[5] = 0 },             // lanes byte
		func(b []byte) { b[5] = 2 },
	} {
		b := bytes.Clone(served)
		mut(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var k Key
		if err := k.UnmarshalBinary(data); err != nil {
			return
		}
		out, err := k.MarshalBinary()
		if err != nil {
			t.Fatalf("accepted key fails to re-marshal: %v", err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("accepted key is not canonical:\n in  %x\n out %x", data, out)
		}
		// Accepted keys must evaluate, not panic — at the first leaf and at
		// the domain edge.
		var v [1]uint32
		if err := EvalRange(prg, &k, 0, 1, v[:]); err != nil {
			t.Fatalf("accepted key fails to evaluate: %v", err)
		}
		if err := EvalRange(prg, &k, k.Domain()-1, k.Domain(), v[:]); err != nil {
			t.Fatalf("accepted key fails to evaluate at domain edge: %v", err)
		}
	})
}
