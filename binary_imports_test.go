package gpudpf_test

import (
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// servingBinaries are the programs a deployment runs: the two-party server
// (in every topology) and its client.
var servingBinaries = []string{"./cmd/pirserver", "./cmd/pirclient"}

// reproductionPackages are the paper's analytic reproduction layer — the
// GPU and CPU cost models, the co-design search, the ML models, the
// datasets, the network simulator and the figure harness. A serving
// binary links none of them.
var reproductionPackages = []string{
	"gpudpf/internal/gpu",
	"gpudpf/internal/model",
	"gpudpf/internal/codesign",
	"gpudpf/internal/ml",
	"gpudpf/internal/data",
	"gpudpf/internal/netsim",
	"gpudpf/internal/experiments",
}

// servingUnlinked are standard-library packages a serving binary does not
// link: the served PRF is fixed-key AES on dpf's own kernels and T-table
// body, so crypto/aes is only the tests' reference for it.
var servingUnlinked = []string{"crypto/aes"}

// TestServingBinaryImports walks the serving binaries' import graph with
// `go list -deps` and fails if it reaches a reproduction package: serve
// and reproduce are two layers, and only the reproduction (benchall,
// gpudpf, the experiments) prices a modeled GPU. Nor may it reach a
// package of servingUnlinked.
func TestServingBinaryImports(t *testing.T) {
	out, err := exec.Command(goTool(), append([]string{"list", "-deps"}, servingBinaries...)...).Output()
	if err != nil {
		t.Fatalf("go list -deps %s: %v", strings.Join(servingBinaries, " "), err)
	}
	deps := map[string]bool{}
	for _, p := range strings.Fields(string(out)) {
		deps[p] = true
	}
	for _, p := range servingBinaries {
		if !deps["gpudpf/"+strings.TrimPrefix(p, "./")] {
			t.Fatalf("go list -deps does not list %s itself; got %d packages", p, len(deps))
		}
	}
	for _, p := range append(reproductionPackages, servingUnlinked...) {
		if deps[p] {
			t.Errorf("%s links %s", strings.Join(servingBinaries, " and "), p)
		}
	}
}

// goTool is the go command that built this test.
func goTool() string {
	if p, err := exec.LookPath("go"); err == nil {
		return p
	}
	return filepath.Join(runtime.GOROOT(), "bin", "go")
}
