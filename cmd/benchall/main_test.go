package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/fast.golden from the current model")

// TestFastGolden pins every table `benchall -fast` prints, byte for byte:
// a change that moves a reproduced number shows up here as a diff, and a
// refactor that claims to move none is checked rather than diffed by hand.
// Regenerate with `go test ./cmd/benchall -run TestFastGolden -update`.
func TestFastGolden(t *testing.T) {
	var got bytes.Buffer
	if err := render(&got, fastOrder); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "fast.golden")
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w []byte
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if !bytes.Equal(g, w) {
				t.Fatalf("benchall -fast differs from %s at line %d:\n got: %s\nwant: %s", path, i+1, g, w)
			}
		}
	}
}
