//go:build race

package gpudpf_test

// raceEnabled reports that this test binary runs under the race detector,
// whose instrumentation allocates and defeats sync.Pool reuse: the
// allocation-count test is skipped there (the uninstrumented build
// enforces it).
const raceEnabled = true
