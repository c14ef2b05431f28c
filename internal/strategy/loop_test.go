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
	}{{"aes128", dpf.NewAESPRG()}, {"chacha20", dpf.NewChaChaPRG()}} {
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

// TestTileLoopSplitParts pins the rule that splits a narrow tile's leaf
// range: the cores the tile's queries leave idle, capped so that no
// sub-range is narrower than a row block — and the cuts it makes: strictly
// increasing, on terminal-group boundaries, from the range's first leaf to
// its last.
func TestTileLoopSplitParts(t *testing.T) {
	for _, c := range []struct{ workers, q, width, want int }{
		{1, 1, 1 << 20, 1},                     // one core: never split
		{2, 1, 1 << 20, 2},                     // batch 1 on 2 cores
		{8, 1, 1 << 20, 8},                     // batch 1 on 8 cores
		{8, 3, 1 << 20, 2},                     // 8/3 cores per query
		{8, 5, 1 << 20, 1},                     // 8/5 < 2: query fan-out only
		{8, 8, 1 << 20, 1},                     // as many queries as cores
		{8, 32, 1 << 20, 1},                    // a full tile
		{8, 1, 2*parMinBlockRows + 777, 2},     // width-bound
		{8, 1, parMinBlockRows, 1},             // one row block
		{2, 1, 512, 1},                         // a small shard node's range
		{3, 1, 3*parMinBlockRows - 1, 2},       // just short of three blocks
		{16, 2, 16 * parMinBlockRows, 8},       // cores-bound
		{16, 1, 100 * parMinBlockRows / 7, 14}, // width-bound, uneven
	} {
		if got := splitParts(c.workers, c.q, c.width); got != c.want {
			t.Errorf("splitParts(workers=%d, q=%d, width=%d) = %d, want %d", c.workers, c.q, c.width, got, c.want)
		}
	}
	prg := dpf.NewAESPRG()
	tab := buildTable(t, 1<<14, 1, 1)
	for _, early := range []int{0, 1, 2} {
		k, _, err := dpf.GenEarly(prg, 5, tab.Bits(), []uint32{1}, early, rand.New(rand.NewSource(int64(early))))
		if err != nil {
			t.Fatal(err)
		}
		for _, rg := range [][2]uint64{{0, 1 << 14}, {333, 333 + 3*parMinBlockRows + 5}, {1, 2*parMinBlockRows + 2}} {
			r := tileRun{tileJob: tileJob{lo: rg[0], hi: rg[1]}}
			for _, parts := range []int{1, 2, 3, 7} {
				prev := r.cut(&k, 0, parts)
				if prev != r.lo || r.cut(&k, parts, parts) != r.hi {
					t.Fatalf("early=%d [%d,%d) parts=%d: cuts run %d..%d", early, r.lo, r.hi, parts, prev, r.cut(&k, parts, parts))
				}
				for p := 1; p <= parts; p++ {
					c := r.cut(&k, p, parts)
					if c <= prev || (p < parts && c%uint64(k.GroupSize()) != 0) {
						t.Fatalf("early=%d [%d,%d) parts=%d: cut %d = %d after %d", early, r.lo, r.hi, parts, p, c, prev)
					}
					prev = c
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
