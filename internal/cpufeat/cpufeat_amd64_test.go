//go:build amd64 && !purego

package cpufeat

import (
	"os"
	"strings"
	"testing"
)

// TestProbeMatchesKernelFlags cross-checks the probe against the flags
// line the Linux kernel derives from the same CPUID leaves (and its own
// XCR0 set-up): a bit decoded from the wrong register or position shows
// up as a disagreement on any host that has the feature.
func TestProbeMatchesKernelFlags(t *testing.T) {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo to compare against: %v", err)
	}
	var flags map[string]bool
	for _, line := range strings.Split(string(raw), "\n") {
		if name, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			flags = make(map[string]bool)
			for _, f := range strings.Fields(val) {
				flags[f] = true
			}
			break
		}
	}
	if flags == nil {
		t.Skip("/proc/cpuinfo has no flags line")
	}
	for _, c := range []struct {
		flag string
		got  bool
	}{{"aes", AESNI}, {"avx2", AVX2}, {"vaes", VAES},
		{"avx512bw", AVX512BW}, {"avx512ifma", AVX512IFMA}} {
		if c.got != flags[c.flag] {
			t.Errorf("probe says %s=%v, /proc/cpuinfo says %v", c.flag, c.got, flags[c.flag])
		}
	}
	// AMXInt8 is more than the CPUID bits (XCR0, the permission request), so
	// only one direction is an error.
	listed := flags["amx_tile"] && flags["amx_int8"]
	if AMXInt8 && !listed {
		t.Errorf("probe says AMXInt8, /proc/cpuinfo lists amx_tile=%v amx_int8=%v", flags["amx_tile"], flags["amx_int8"])
	}
	t.Logf("AMXInt8=%v (/proc/cpuinfo lists the unit: %v)", AMXInt8, listed)
	// The avx512 accumulate tier runs only where IFMA is set.
	t.Logf("AVX512IFMA=%v (/proc/cpuinfo lists avx512ifma: %v)", AVX512IFMA, flags["avx512ifma"])
}
