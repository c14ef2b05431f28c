package seedbaseline

import (
	"math/rand/v2"
	"testing"

	"gpudpf/internal/dpf"
	"gpudpf/internal/strategy"
)

// TestRunMatchesTiled pins the baseline to the live tiled path: it expands
// through the live prg.Expand, so for every PRF its answers must equal
// MemBoundTree's on the same full-depth keys — the precondition for
// comparing the two paths' speed.
func TestRunMatchesTiled(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 31))
	tab, err := strategy.NewTable(1000, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tab.Data {
		tab.Data[i] = rng.Uint32()
	}
	for _, name := range dpf.AllPRGNames() {
		prg, err := dpf.NewPRG(name)
		if err != nil {
			t.Fatal(err)
		}
		keys := make([]*dpf.Key, 3)
		for q := range keys {
			alpha := uint64(rng.IntN(tab.NumRows))
			k0, _, err := dpf.GenEarly(prg, alpha, tab.Bits(), []uint32{rng.Uint32()}, 0, pcgReader{rng})
			if err != nil {
				t.Fatal(err)
			}
			keys[q] = &k0
		}
		var ctr strategy.Counters
		want, err := strategy.Run(strategy.MemBoundTree{K: 128}, prg, keys, tab.View(), &ctr)
		if err != nil {
			t.Fatal(err)
		}
		got := Run(prg, keys, tab, 128)
		for q := range keys {
			for l := range want[q] {
				if got[q][l] != want[q][l] {
					t.Fatalf("%s: key %d lane %d: baseline %#x, tiled %#x", name, q, l, got[q][l], want[q][l])
				}
			}
		}
	}
}

// pcgReader adapts a seeded PCG to the io.Reader dpf.GenEarly draws its
// seeds from, so the test replays exactly.
type pcgReader struct{ r *rand.Rand }

func (c pcgReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(c.r.Uint32())
	}
	return len(p), nil
}
