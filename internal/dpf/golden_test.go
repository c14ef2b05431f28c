package dpf

import (
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// updateGolden regenerates testdata/golden_keys.json:
//
//	go test ./internal/dpf -run TestGoldenWireFormat -update-golden
//
// The fixtures are checked in so CI catches wire-format breaks (a v1, v2
// or v3 layout change, a PRF implementation drift — including asm vs purego —
// or an evaluation regression) before a deployed client does.
var updateGolden = flag.Bool("update-golden", false, "regenerate the golden key fixtures")

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

// generateGolden deterministically builds one v1, one v2 and one v3
// fixture per PRF; the v2 and v3 fixtures are the same early-terminated
// key pair in both layouts, so v3 costs the rng stream nothing and the v1
// and v2 bytes stay as they were before v3 existed. The rng stream is
// fixed, and every PRF is deterministic, so the resulting bytes are
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
			beta := []uint32{rng.Uint32()}
			k0, k1, err := GenEarly(prg, alpha, bits, beta, early, rng)
			if err != nil {
				t.Fatal(err)
			}
			versions := []int{1}
			if early > 0 {
				versions = []int{2, 3}
			}
			for _, v := range versions {
				k0.Wire, k1.Wire = v, v
				raw0, err := k0.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				raw1, err := k1.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, goldenKey{
					PRG:     name,
					Version: WireVersion(raw0),
					Bits:    bits,
					Early:   early,
					Alpha:   alpha,
					Beta:    beta,
					Key0:    hex.EncodeToString(raw0),
					Key1:    hex.EncodeToString(raw1),
				})
			}
		}
	}
	return out
}

// TestGoldenWireFormat pins the three wire formats and every PRF's evaluation
// to checked-in bytes: each fixture must carry its declared version,
// unmarshal, re-marshal byte-identically, and reconstruct its exact point
// function. A failure here means deployed clients' keys would break.
func TestGoldenWireFormat(t *testing.T) {
	if *updateGolden {
		fixtures := generateGolden(t)
		buf, err := json.MarshalIndent(fixtures, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		buf = append(buf, '\n')
		if err := os.MkdirAll(filepath.Dir(goldenPath()), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath(), buf, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d fixtures to %s", len(fixtures), goldenPath())
	}
	raw, err := os.ReadFile(goldenPath())
	if err != nil {
		t.Fatalf("reading fixtures (regenerate with -update-golden): %v", err)
	}
	var fixtures []goldenKey
	if err := json.Unmarshal(raw, &fixtures); err != nil {
		t.Fatal(err)
	}
	if want := 3 * len(allPRGNames()); len(fixtures) != want {
		t.Fatalf("%d fixtures, want %d (v1+v2+v3 per PRF)", len(fixtures), want)
	}

	// The checked-in bytes must also be exactly what today's Gen produces
	// from the fixed rng stream — Gen drift is a silent protocol break.
	regen := generateGolden(t)

	for i, g := range fixtures {
		t.Run(g.PRG+"/v"+string(rune('0'+g.Version)), func(t *testing.T) {
			prg, err := testPRG(g.PRG)
			if err != nil {
				t.Fatal(err)
			}
			if !equalGolden(regen[i], g) {
				t.Errorf("Gen no longer reproduces the checked-in fixture (wire or PRF drift)")
			}
			for party, hexKey := range []string{g.Key0, g.Key1} {
				raw, err := hex.DecodeString(hexKey)
				if err != nil {
					t.Fatal(err)
				}
				if v := WireVersion(raw); v != g.Version {
					t.Fatalf("party %d: wire version %d, fixture says %d", party, v, g.Version)
				}
				var k Key
				if err := k.UnmarshalBinary(raw); err != nil {
					t.Fatalf("party %d: unmarshal: %v", party, err)
				}
				if k.Bits != g.Bits || k.Early != g.Early || int(k.Party) != party {
					t.Fatalf("party %d: header (bits=%d early=%d party=%d) != fixture (%d, %d, %d)",
						party, k.Bits, k.Early, k.Party, g.Bits, g.Early, party)
				}
				remarshaled, err := k.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				if hex.EncodeToString(remarshaled) != hexKey {
					t.Fatalf("party %d: re-marshal is not byte-identical", party)
				}
			}
			var k0, k1 Key
			raw0, _ := hex.DecodeString(g.Key0)
			raw1, _ := hex.DecodeString(g.Key1)
			if err := k0.UnmarshalBinary(raw0); err != nil {
				t.Fatal(err)
			}
			if err := k1.UnmarshalBinary(raw1); err != nil {
				t.Fatal(err)
			}
			// EvalFull runs the fused scalar walk (ExpandLeaves →
			// StepLeafBatch → the AES node-expansion kernel on amd64),
			// so the checked-in bytes pin the new entry points too.
			f0 := EvalFull(prg, &k0)
			f1 := EvalFull(prg, &k1)
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
			var fs FrontierScratch
			seeds, ts := fs.ExpandFrontier(prg, &k0)
			unfused := make([]uint32, k0.Domain())
			LeafValuesInto(&k0, seeds, ts, unfused)
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
