package model

import (
	"testing"

	"gpudpf/internal/dpf"
)

// TestPRFCycleOrdering pins Table 5's ordering in the cost table: on the
// GPU model, siphash < chacha20 < highway < aes128 <= sha256 in cycles
// (QPS order 7447 > 3640 > 1973 > 965 > 921), every cost is positive, and
// the entries come in Table 5's row order.
func TestPRFCycleOrdering(t *testing.T) {
	cost := map[string]float64{}
	var names []string
	for _, p := range PRFs {
		if p.GPUCyclesPerBlock <= 0 || p.CPUCyclesPerBlock <= 0 {
			t.Errorf("%s: non-positive cycle model", p.Name)
		}
		cost[p.Name] = p.GPUCyclesPerBlock
		names = append(names, p.Name)
	}
	if !(cost["siphash"] < cost["chacha20"] && cost["chacha20"] < cost["highway"] &&
		cost["highway"] < cost["aes128"] && cost["aes128"] <= cost["sha256"]) {
		t.Errorf("GPU cycle model violates Table 5 ordering: %v", cost)
	}
	want := []string{"aes128", "sha256", "chacha20", "siphash", "highway"}
	if len(names) != len(want) {
		t.Fatalf("PRFs = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("PRFs = %v, want Table 5's order %v", names, want)
		}
	}
}

// TestLookupPRF: every entry is found by its name, the served PRF's entry
// is AES128 under dpf's name, and an unknown name is refused by name.
func TestLookupPRF(t *testing.T) {
	for _, p := range PRFs {
		if got, err := LookupPRF(p.Name); err != nil || got != p {
			t.Errorf("LookupPRF(%q) = %v, %v", p.Name, got, err)
		}
	}
	if got, err := LookupPRF(dpf.PRGName); err != nil || got != AES128 {
		t.Errorf("LookupPRF(%q) = %v, %v; want AES128", dpf.PRGName, got, err)
	}
	if _, err := LookupPRF("des"); err == nil {
		t.Error("LookupPRF(des) should fail")
	}
}
