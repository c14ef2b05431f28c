package dpf

import (
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// updateGolden regenerates the served fixtures in
// testdata/golden_keys.json:
//
//	go test ./internal/dpf -run TestGoldenWireFormat -update-golden
//
// The fixtures are checked in so CI catches wire-format breaks (a layout
// change, a PRF implementation drift — including asm vs purego — or an
// evaluation regression) before a deployed client does. The v1, v2 and v3
// fixtures, the formats served before v4, are kept byte for byte from the
// checked-in file: no build can regenerate them, since their Final words
// belong to a leaf conversion that kept word 0's low bit. Each is refused
// by name and decodes to its served twin's header, root and correction
// words.
var updateGolden = flag.Bool("update-golden", false, "regenerate the served golden key fixtures")

// goldenKey is one serialized key pair with everything needed to verify
// it still unmarshals, round-trips byte-for-byte, and evaluates to its
// point function.
type goldenKey struct {
	PRG     string   `json:"prg"`
	Version int      `json:"version"`
	Bits    int      `json:"bits"`
	Early   int      `json:"early"`
	Alpha   uint64   `json:"alpha"`
	Beta    []uint32 `json:"beta"`
	Key0    string   `json:"key0_hex"`
	Key1    string   `json:"key1_hex"`
}

func goldenPath() string { return filepath.Join("testdata", "golden_keys.json") }

// legacyMarshal encodes a key in the layout served before v3: v1 (magic
// 0xDF01) at full depth, v2 (0xDF02) when early-terminated. Both spend a
// whole control-bit byte per level and four bytes on the lane count:
//
//	magic u16, bits u8, party u8, [v2: early u8], lanes u32 = 1,
//	root [16]byte, (bits-early) × {seed [16]byte; tbits u8 (bit0=TL,
//	bit1=TR)}, final 2^early × u32
func legacyMarshal(k *Key) []byte {
	out := binary.LittleEndian.AppendUint16(nil, 0xDF01)
	out = append(out, byte(k.Bits), k.Party)
	if k.Early > 0 {
		out[0] = 0x02
		out = append(out, byte(k.Early))
	}
	out = binary.LittleEndian.AppendUint32(out, 1)
	out = append(out, k.Root[:]...)
	for _, cw := range k.CWs {
		out = append(out, cw.S[:]...)
		out = append(out, cw.TL|cw.TR<<1)
	}
	for _, f := range k.Final {
		out = binary.LittleEndian.AppendUint32(out, f)
	}
	return out
}

// legacyUnmarshal parses what legacyMarshal emits: a v1 key at full depth
// or a v2 key early-terminated.
func legacyUnmarshal(data []byte) (Key, error) {
	var k Key
	v, hdr := WireVersion(data), 8
	switch {
	case v == 2 && len(data) > 9:
		k.Early, hdr = int(data[4]), 9
	case v != 1 || len(data) < hdr:
		return k, errors.New("not a v1 or v2 key")
	}
	k.Bits, k.Party = int(data[2]), data[3]
	if k.Bits > MaxBits || k.Early >= k.Bits || (v == 2) != (k.Early > 0) || k.Early > MaxEarlyBits {
		return k, fmt.Errorf("v%d key of %d bits at depth %d", v, k.Bits, k.Early)
	}
	if lanes := binary.LittleEndian.Uint32(data[hdr-4:]); lanes != 1 {
		return k, fmt.Errorf("%d lanes", lanes)
	}
	if want := hdr + 16 + 17*k.TreeDepth() + 4*k.GroupSize(); len(data) != want {
		return k, fmt.Errorf("size %d, want %d", len(data), want)
	}
	off := copy(k.Root[:], data[hdr:]) + hdr
	k.CWs = make([]CW, k.TreeDepth())
	for i := range k.CWs {
		copy(k.CWs[i].S[:], data[off:])
		k.CWs[i].TL, k.CWs[i].TR = data[off+16]&1, data[off+16]>>1&1
		off += 17
	}
	k.Final = make([]uint32, k.GroupSize())
	for i := range k.Final {
		k.Final[i] = binary.LittleEndian.Uint32(data[off:])
		off += 4
	}
	return k, nil
}

// goldenName is a fixture's subtest name: its PRF and version, and
// "-early0" on a v3 or later key that walks full depth.
func goldenName(g goldenKey) string {
	name := g.PRG + "/v" + strconv.Itoa(g.Version)
	if g.Version >= 3 && g.Early == 0 {
		name += "-early0"
	}
	return name
}

// generateGolden deterministically builds the served fixtures, two per
// PRF: a full-depth key pair and an early-terminated one. The rng stream
// and its draw order are the ones the retired fixtures were drawn with, so
// each served fixture is the same key as its retired twins but for the
// magic and Final. Every PRF is deterministic, so the resulting bytes are
// identical on every platform — which is exactly what makes them a
// cross-build honesty check for the asm and purego AES paths.
func generateGolden(t *testing.T) []goldenKey {
	t.Helper()
	rng := testRand(20260728)
	const bits = 10
	var out []goldenKey
	for _, name := range allPRGNames() {
		prg, err := testPRG(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, early := range []int{0, MaxEarlyBits} {
			alpha := uint64(rng.Int63n(1 << bits))
			beta := rng.Uint32()
			k0, k1, err := GenEarly(prg, alpha, bits, beta, early, rng)
			if err != nil {
				t.Fatal(err)
			}
			var raw [2][]byte
			for party, k := range []*Key{&k0, &k1} {
				if raw[party], err = k.MarshalBinary(); err != nil {
					t.Fatal(err)
				}
			}
			out = append(out, goldenKey{
				PRG:     name,
				Version: ServedWire,
				Bits:    bits,
				Early:   early,
				Alpha:   alpha,
				Beta:    []uint32{beta},
				Key0:    hex.EncodeToString(raw[0]),
				Key1:    hex.EncodeToString(raw[1]),
			})
		}
	}
	return out
}

// readGolden reads the checked-in fixtures.
func readGolden(t *testing.T) []goldenKey {
	t.Helper()
	raw, err := os.ReadFile(goldenPath())
	if err != nil {
		t.Fatalf("reading fixtures (regenerate with -update-golden): %v", err)
	}
	var fixtures []goldenKey
	if err := json.Unmarshal(raw, &fixtures); err != nil {
		t.Fatal(err)
	}
	return fixtures
}

// writeGolden rewrites the fixture file: each PRF's retired fixtures as
// checked in, then its freshly generated served ones.
func writeGolden(t *testing.T) {
	t.Helper()
	old, served := readGolden(t), generateGolden(t)
	var fixtures []goldenKey
	for _, name := range allPRGNames() {
		for _, g := range old {
			if g.PRG == name && g.Version < ServedWire {
				fixtures = append(fixtures, g)
			}
		}
		for _, g := range served {
			if g.PRG == name {
				fixtures = append(fixtures, g)
			}
		}
	}
	buf, err := json.MarshalIndent(fixtures, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(goldenPath(), buf, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %d fixtures to %s", len(fixtures), goldenPath())
}

// retiredKey decodes a fixture in a retired format: v1 and v2 through the
// reference decoder, v3 (the served layout under another magic) through
// UnmarshalBinary with the magic swapped.
func retiredKey(raw []byte) (Key, error) {
	if WireVersion(raw) != 3 {
		return legacyUnmarshal(raw)
	}
	var k Key
	served := binary.LittleEndian.AppendUint16(nil, keyMagic)
	err := k.UnmarshalBinary(append(served, raw[2:]...))
	return k, err
}

// TestGoldenWireFormat pins the served wire format and every PRF's
// evaluation to checked-in bytes. A served (v4) fixture must carry its
// declared version, unmarshal and re-marshal byte-identically, be what
// Gen draws from the fixed rng stream, reconstruct its exact point
// function, and evaluate the same through the fused and unfused paths. A
// retired (v1, v2 or v3) fixture must be refused by UnmarshalBinary naming
// its version and the served one, round-trip through its own decoder, and
// decode to its served twin's header, root and correction words: only the
// magic and Final may differ. It is not evaluated, since its Final belongs
// to the retired leaf conversion. A failure here means deployed clients'
// keys would break.
func TestGoldenWireFormat(t *testing.T) {
	if *updateGolden {
		writeGolden(t)
	}
	fixtures := readGolden(t)
	if want := 6 * len(allPRGNames()); len(fixtures) != want {
		t.Fatalf("%d fixtures, want %d (v3 at full depth, v1, v2, v3, v4 at full depth and v4 per PRF)", len(fixtures), want)
	}
	// The checked-in served bytes must also be exactly what today's Gen
	// produces from the fixed rng stream — Gen drift is a silent protocol
	// break. A fixture's served twin: the same PRF and depth.
	regen := map[string]goldenKey{}
	for _, g := range generateGolden(t) {
		regen[g.PRG+"/"+strconv.Itoa(g.Early)] = g
	}

	for _, g := range fixtures {
		t.Run(goldenName(g), func(t *testing.T) {
			prg, err := testPRG(g.PRG)
			if err != nil {
				t.Fatal(err)
			}
			tw := regen[g.PRG+"/"+strconv.Itoa(g.Early)]
			served := g.Version == ServedWire
			if served && !equalGolden(tw, g) {
				t.Errorf("Gen no longer reproduces the checked-in fixture (wire or PRF drift)")
			}
			var keys [2]Key
			for party, hexKey := range []string{g.Key0, g.Key1} {
				raw, err := hex.DecodeString(hexKey)
				if err != nil {
					t.Fatal(err)
				}
				if v := WireVersion(raw); v != g.Version {
					t.Fatalf("party %d: wire version %d, fixture says %d", party, v, g.Version)
				}
				k := &keys[party]
				if served {
					if err := k.UnmarshalBinary(raw); err != nil {
						t.Fatalf("party %d: unmarshal: %v", party, err)
					}
					if again, err := k.MarshalBinary(); err != nil || hex.EncodeToString(again) != hexKey {
						t.Fatalf("party %d: re-marshal is not byte-identical (%v)", party, err)
					}
				} else {
					err := new(Key).UnmarshalBinary(raw)
					if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("key wire v%d", g.Version)) ||
						!strings.Contains(err.Error(), fmt.Sprintf("serves key wire v%d", ServedWire)) {
						t.Fatalf("party %d: UnmarshalBinary of a v%d key: %v, want a refusal naming both versions", party, g.Version, err)
					}
					if *k, err = retiredKey(raw); err != nil {
						t.Fatalf("party %d: decoding the v%d key: %v", party, g.Version, err)
					}
					var again []byte
					if g.Version == 3 {
						again, _ = k.MarshalBinary()
						again[0] = 0x03
					} else {
						again = legacyMarshal(k)
					}
					if hex.EncodeToString(again) != hexKey {
						t.Fatalf("party %d: the v%d key does not re-encode byte-identically", party, g.Version)
					}
				}
				if k.Bits != g.Bits || k.Early != g.Early || int(k.Party) != party {
					t.Fatalf("party %d: header (bits=%d early=%d party=%d) != fixture (%d, %d, %d)",
						party, k.Bits, k.Early, k.Party, g.Bits, g.Early, party)
				}
				if served {
					continue
				}
				var twin Key
				twinRaw, err := hex.DecodeString([2]string{tw.Key0, tw.Key1}[party])
				if err == nil {
					err = twin.UnmarshalBinary(twinRaw)
				}
				if err != nil {
					t.Fatalf("party %d: the served twin: %v", party, err)
				}
				if g.Alpha != tw.Alpha || !slices.Equal(g.Beta, tw.Beta) || k.Bits != twin.Bits || k.Early != twin.Early ||
					k.Party != twin.Party || k.Root != twin.Root || !slices.Equal(k.CWs, twin.CWs) {
					t.Fatalf("party %d: the v%d key is not its served twin's key but for the magic and Final", party, g.Version)
				}
			}
			if !served {
				return
			}
			k0, k1 := &keys[0], &keys[1]
			// EvalFull runs the fused walk (StepBothBatch levels, then
			// StepLeafBatch → the AES kernels on amd64), so the
			// checked-in bytes pin the served entry points too.
			f0 := EvalFull(prg, k0)
			f1 := EvalFull(prg, k1)
			for j := uint64(0); j < 1<<uint(g.Bits); j++ {
				want := uint32(0)
				if j == g.Alpha {
					want = g.Beta[0]
				}
				if got := f0[j] + f1[j]; got != want {
					t.Fatalf("reconstruction at %d = %d, want %d", j, got, want)
				}
			}
			// Cross-check the fused walk against the unfused frontier +
			// conversion pipeline on the same fixture bytes.
			seeds, ts := expandFrontier(prg, k0)
			unfused := make([]uint32, k0.Domain())
			LeafValuesInto(k0, seeds, ts, unfused)
			for j := range unfused {
				if f0[j] != unfused[j] {
					t.Fatalf("leaf %d: fused evaluation %d != unfused %d", j, f0[j], unfused[j])
				}
			}
		})
	}
}

func equalGolden(a, b goldenKey) bool {
	if a.PRG != b.PRG || a.Version != b.Version || a.Bits != b.Bits ||
		a.Early != b.Early || a.Alpha != b.Alpha || a.Key0 != b.Key0 || a.Key1 != b.Key1 {
		return false
	}
	if len(a.Beta) != len(b.Beta) {
		return false
	}
	for i := range a.Beta {
		if a.Beta[i] != b.Beta[i] {
			return false
		}
	}
	return true
}
