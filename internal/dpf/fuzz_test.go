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
// wire keys, seeded from the golden v1, v2 and v3 fixtures of every PRF
// and from a v3 key whose last control-bit byte is padded, as sent and
// with a padding bit or its lanes byte corrupted. Any
// accepted input must re-marshal byte-identically (the wire format is
// canonical) and evaluate without panicking.
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
	padded, _, err := Gen(prg, 3, 7, []uint32{1}, testRand(44))
	if err != nil {
		f.Fatal(err)
	}
	v3, err := padded.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v3)
	for _, mut := range []func(b []byte){
		func(b []byte) { b[len(b)-17] |= 0x80 }, // a padding bit of the tbits byte
		func(b []byte) { b[5] = 0 },             // lanes byte
		func(b []byte) { b[5] = 2 },
	} {
		b := bytes.Clone(v3)
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
		// Accepted keys must evaluate, not panic — at a leaf, and (cheap
		// only for parsed keys, whose size bounds lanes) at the domain edge.
		if _, err := EvalAt(prg, &k, 0); err != nil {
			t.Fatalf("accepted key fails to evaluate: %v", err)
		}
		if _, err := EvalAt(prg, &k, uint64(1)<<uint(k.Bits)-1); err != nil {
			t.Fatalf("accepted key fails to evaluate at domain edge: %v", err)
		}
	})
}
