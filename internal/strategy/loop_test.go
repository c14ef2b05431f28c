package strategy

import (
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"gpudpf/internal/dpf"
)

// This file guards the one execution method and the one tile loop: the
// Strategy contract cannot regrow, the free Run / RunRange agree with each
// other and with any partition on any view, and a failing table stream
// ends the batch at once, leaks nothing and poisons no pooled scratch.

// TestStrategyContract pins strategy.Strategy to exactly Name and
// RunRangeInto, and keeps the executor free of Run / RunRange methods
// (they are free functions over a TableView) and of a Model: the paper's
// cost models are package model, which the executor does not import.
func TestStrategyContract(t *testing.T) {
	iface := reflect.TypeOf((*Strategy)(nil)).Elem()
	var got []string
	for i := 0; i < iface.NumMethod(); i++ {
		got = append(got, iface.Method(i).Name)
	}
	if want := []string{"Name", "RunRangeInto"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Strategy declares %v, want exactly %v", got, want)
	}
	for _, name := range []string{"Run", "RunRange", "Model"} {
		if _, ok := reflect.TypeOf(MemBoundTree{}).MethodByName(name); ok {
			t.Errorf("MemBoundTree has a %s method; the execution API is RunRangeInto plus the free functions", name)
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
// for every executor × {aes128, chacha20}, on a contiguous and on a
// fragmented view of a randomly shaped table — one non-power-of-two row
// count and one power of two — the free Run equals RunRange over [0, rows)
// equals the lane-wise sum of RunRange over a random partition, bit for
// bit and the same bits on both views. The whole-table call counts exactly
// the PRF blocks of the count-only walker bounded to [0, rows) (the walk
// stops at the last row) and two passes over the table's rows. The batch
// spans two tiles.
func TestTileLoopRunPartitionProperty(t *testing.T) {
	const seed, batch = 2024, 34
	rng := rand.New(rand.NewSource(seed))
	for _, pc := range []struct {
		name string
		prg  dpf.PRG
	}{{"aes128", dpf.NewAESPRG()}} {
		odd := 200 + rng.Intn(600)
		if odd&(odd-1) == 0 {
			odd++
		}
		for _, rows := range []int{odd, 1 << (8 + rng.Intn(2))} {
			lanes := 1 + rng.Intn(5)
			tab := buildTable(t, rows, lanes, rng.Int63())
			keys, _, _ := genBatch(t, pc.prg, tab, batch, rng.Int63())
			walked := batch * walkRangeBlocks(tab.Bits(), keys[0].Early, 0, uint64(rows))
			cuts := append(append([]int{0}, randomCuts(rng, rows, 1+rng.Intn(6))...), rows)
			views := []struct {
				name string
				v    TableView
			}{{"contiguous", tab.View()}, {"fragmented", fragView{t: tab, cuts: randomCuts(rng, rows, 40)}}}
			for _, s := range executors() {
				var want [][]uint32
				for _, vw := range views {
					fail := func(format string, args ...any) {
						t.Helper()
						t.Fatalf("seed %d %s/%s %s %dx%d cuts %v: "+format,
							append([]any{seed, s.Name(), pc.name, vw.name, rows, lanes, cuts}, args...)...)
					}
					var ctr Counters
					full, err := Run(s, pc.prg, keys, vw.v, &ctr)
					if err != nil {
						fail("Run: %v", err)
					}
					if got, want := ctr.Snapshot(), (Stats{PRFBlocks: walked, ReadBytes: 2 * int64(rows*lanes) * 4}); got != want {
						fail("Run counted %+v, want the walker bounded to [0, rows) and two table passes %+v", got, want)
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

// TestTileLoopFirstErrorEndsBatch: for a narrow fused and a default
// unfused MemBoundTree × worker budget {1, 4} × {whole table, partial
// range}, a view whose Pass fails
// at a chosen row makes RunRangeInto return that named error; the first
// error ends the batch (only the first of three tiles was ever expanded,
// at any budget — the counted PRF blocks say so); no goroutine outlives
// the call; and the pooled run state and its leaf spans come back clean —
// the same strategy over the healthy view then answers correctly.
func TestTileLoopFirstErrorEndsBatch(t *testing.T) {
	forceGOMAXPROCS(t, 8)
	rng := rand.New(rand.NewSource(99))
	rows := 2*parMinBlockRows + 777
	const lanes, batch = 2, 2*tileQueries + 6
	prg := dpf.NewAESPRG()
	tab := buildTable(t, rows, lanes, 13)
	keys, _, _ := genBatch(t, prg, tab, batch, 17)
	cuts := randomCuts(rng, rows, 50)
	for _, s := range []MemBoundTree{{K: 8}, {K: 128}} {
		for _, r := range [][2]int{{0, rows}, {100, rows - 100}} {
			lo, hi := r[0], r[1]
			var cleanCtr Counters
			want, err := RunRange(s, prg, keys, tab.View(), lo, hi, &cleanCtr)
			if err != nil {
				t.Fatal(err)
			}
			cleanBlocks := cleanCtr.Snapshot().PRFBlocks
			for _, workers := range []int{1, 4} {
				ps := s
				ps.Workers = workers
				// The fault sits past the first row block, so some of the
				// stream has already been added.
				bad := fragView{t: tab, cuts: cuts, fault: errStreamFault, faultRow: lo + parMinBlockRows + 5}
				base := runtime.NumGoroutine()
				var ctr Counters
				_, err := RunRange(ps, prg, keys, bad, lo, hi, &ctr)
				if !errors.Is(err, errStreamFault) {
					t.Fatalf("%s workers=%d [%d,%d): got %v, want the injected fault", s.Name(), workers, lo, hi, err)
				}
				waitGoroutines(t, base, s.Name())
				if got, limit := ctr.Snapshot().PRFBlocks, cleanBlocks*tileQueries/batch; got > limit {
					t.Errorf("%s workers=%d [%d,%d): %d PRF blocks counted after the fault, want <= %d (one tile of a clean run's %d)",
						s.Name(), workers, lo, hi, got, limit, cleanBlocks)
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
