package strategy

import (
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"gpudpf/internal/dpf"
	"gpudpf/internal/gpu"
)

// This file guards the one execution method and the one tile loop: the
// Strategy contract cannot regrow, the free Run / RunRange agree with each
// other and with any partition on any view, and a failing table stream
// ends the batch at once, leaks nothing and poisons no pooled scratch.

// TestStrategyContract pins strategy.Strategy to exactly Name,
// RunRangeInto and Model, and keeps every strategy type free of Run /
// RunRange methods (they are free functions over a TableView).
func TestStrategyContract(t *testing.T) {
	it := reflect.TypeOf((*Strategy)(nil)).Elem()
	var got []string
	for i := 0; i < it.NumMethod(); i++ {
		got = append(got, it.Method(i).Name)
	}
	if want := []string{"Model", "Name", "RunRangeInto"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Strategy declares %v, want exactly %v", got, want)
	}
	for _, s := range allStrategies() {
		for _, name := range []string{"Run", "RunRange"} {
			if _, ok := reflect.TypeOf(s).MethodByName(name); ok {
				t.Errorf("%T has a %s method; the execution API is RunRangeInto plus the free functions", s, name)
			}
		}
	}
}

// addInto adds part into sum lane-wise mod 2^32.
func addInto(sum, part [][]uint32) {
	for q := range part {
		for l, x := range part[q] {
			sum[q][l] += x
		}
	}
}

// TestTileLoopRunPartitionProperty is the seeded execution-API property:
// for every strategy × {aes128, chacha20}, on a contiguous and on a
// fragmented view of a randomly shaped table, the free Run equals
// RunRange over [0, rows) equals the lane-wise sum of RunRange over a
// random partition — bit for bit, and the same bits on both views — and
// the whole-table call counts exactly Model's PRF blocks. The batch spans
// two tiles.
func TestTileLoopRunPartitionProperty(t *testing.T) {
	const seed, batch = 2024, 34
	rng := rand.New(rand.NewSource(seed))
	dev := gpu.TeslaV100()
	for _, pc := range []struct {
		name string
		prg  dpf.PRG
	}{{"aes128", dpf.NewAESPRG()}, {"chacha20", dpf.NewChaChaPRG()}} {
		rows, lanes := 200+rng.Intn(600), 1+rng.Intn(5)
		tab := buildTable(t, rows, lanes, rng.Int63())
		keys, _, _ := genBatch(t, pc.prg, tab, batch, rng.Int63())
		cuts := append(append([]int{0}, randomCuts(rng, rows, 1+rng.Intn(6))...), rows)
		views := []struct {
			name string
			v    TableView
		}{{"contiguous", tab.View()}, {"fragmented", fragView{t: tab, cuts: randomCuts(rng, rows, 40)}}}
		for _, s := range allStrategies() {
			var want [][]uint32
			for _, vw := range views {
				fail := func(format string, args ...any) {
					t.Helper()
					t.Fatalf("seed %d %s/%s %s %dx%d cuts %v: "+format,
						append([]any{seed, s.Name(), pc.name, vw.name, rows, lanes, cuts}, args...)...)
				}
				var ctr gpu.Counters
				full, err := Run(s, pc.prg, keys, vw.v, &ctr)
				if err != nil {
					fail("Run: %v", err)
				}
				model, err := s.Model(dev, pc.prg, tab.Bits(), batch, lanes)
				if err != nil {
					fail("Model: %v", err)
				}
				if got := ctr.Snapshot().PRFBlocks; got != model.PRFBlocks {
					fail("Run counted %d PRF blocks, Model %d", got, model.PRFBlocks)
				}
				if want == nil {
					want = full
				}
				whole, err := RunRange(s, pc.prg, keys, vw.v, 0, rows, &ctr)
				if err != nil {
					fail("RunRange(0, rows): %v", err)
				}
				sum := NewAnswers(batch, lanes)
				for c := 0; c+1 < len(cuts); c++ {
					part, err := RunRange(s, pc.prg, keys, vw.v, cuts[c], cuts[c+1], &ctr)
					if err != nil {
						fail("RunRange[%d,%d): %v", cuts[c], cuts[c+1], err)
					}
					addInto(sum, part)
				}
				if !reflect.DeepEqual(full, want) || !reflect.DeepEqual(whole, want) || !reflect.DeepEqual(sum, want) {
					fail("Run, RunRange(0, rows) and the partition sum disagree with the contiguous Run")
				}
			}
		}
	}
}

// errStreamFault is the named error the faulting view returns.
var errStreamFault = errors.New("fragView: injected read fault")

// waitGoroutines waits for the goroutine count to fall back to base — a
// joined goroutine may still be unwinding when its WaitGroup releases.
func waitGoroutines(t *testing.T, base int, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines outlive the call (%d before it)", what, runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
	}
}

// TestTileLoopFirstErrorEndsBatch: for every leaf-matrix strategy × worker
// budget {1, 4} × {whole table, partial range}, a view whose Chunks fails
// at a chosen row makes RunRangeInto return that named error; the first
// error ends the batch (with no overlap only the first of three tiles was
// ever expanded; with overlap at most the one in flight besides it — the
// counted PRF blocks say so); no goroutine outlives the call; and the
// pooled run state and its leaf matrices come back clean — the same
// strategy over the healthy view then answers correctly.
func TestTileLoopFirstErrorEndsBatch(t *testing.T) {
	forceGOMAXPROCS(t, 8)
	rng := rand.New(rand.NewSource(99))
	rows := 2*parMinBlockRows + 777
	const lanes, batch = 2, 2*tileQueries + 6
	prg := dpf.NewAESPRG()
	tab := buildTable(t, rows, lanes, 13)
	keys, _, _ := genBatch(t, prg, tab, batch, 17)
	cuts := randomCuts(rng, rows, 50)
	for _, s := range []Strategy{
		LevelByLevel{},
		CPUBaseline{Threads: 1},
		MemBoundTree{K: 8, Fused: true},
		MemBoundTree{K: 128, Fused: false},
		MultiGPU{Devices: 2},
	} {
		for _, r := range [][2]int{{0, rows}, {100, rows - 100}} {
			lo, hi := r[0], r[1]
			var cleanCtr gpu.Counters
			want, err := RunRange(s, prg, keys, tab.View(), lo, hi, &cleanCtr)
			if err != nil {
				t.Fatal(err)
			}
			cleanBlocks := cleanCtr.Snapshot().PRFBlocks
			for _, workers := range []int{1, 4} {
				ps := WithWorkers(s, workers)
				// The fault sits in the first device's rows, past the first
				// row block, so some of the stream has already been added.
				bad := fragView{t: tab, cuts: cuts, fault: errStreamFault, faultRow: lo + parMinBlockRows + 5}
				base := runtime.NumGoroutine()
				var ctr gpu.Counters
				_, err := RunRange(ps, prg, keys, bad, lo, hi, &ctr)
				if !errors.Is(err, errStreamFault) {
					t.Fatalf("%s workers=%d [%d,%d): got %v, want the injected fault", s.Name(), workers, lo, hi, err)
				}
				waitGoroutines(t, base, s.Name())
				tilesExpanded := int64(1)
				if workers > 1 {
					tilesExpanded = 2 // the overlapped next tile was already in flight
				}
				if got, limit := ctr.Snapshot().PRFBlocks, cleanBlocks*tilesExpanded*tileQueries/batch; got > limit {
					t.Errorf("%s workers=%d [%d,%d): %d PRF blocks counted after the fault, want <= %d (%d tile(s) of a clean run's %d)",
						s.Name(), workers, lo, hi, got, limit, tilesExpanded, cleanBlocks)
				}
				got, err := RunRange(ps, prg, keys, fragView{t: tab, cuts: cuts}, lo, hi, &ctr)
				if err != nil {
					t.Fatalf("%s workers=%d [%d,%d) after the fault: %v", s.Name(), workers, lo, hi, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s workers=%d [%d,%d): answers after a faulted call differ from a clean run", s.Name(), workers, lo, hi)
				}
			}
		}
	}
}
