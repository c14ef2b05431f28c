package batchpir

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"gpudpf/internal/dpf"
	"gpudpf/internal/pir"
)

func testTable(t *testing.T, rows, lanes int) *pir.Table {
	t.Helper()
	tab, err := pir.NewTable(rows, lanes)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(uint64(rows), 0))
	for i := range tab.Data {
		tab.Data[i] = rng.Uint32()
	}
	return tab
}

// twoServer puts both parties' bin servers over tab behind one
// pir.TwoServer whose client draws its keys from rng.
func twoServer(t *testing.T, tab *pir.Table, cfg Config, rng *rand.Rand) *pir.TwoServer {
	t.Helper()
	s0, err := NewServer(0, tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := NewServer(1, tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := pir.NewClient("aes128", cfg.BinSize, pir.InsecureSeeded(rng))
	if err != nil {
		t.Fatal(err)
	}
	return &pir.TwoServer{Client: c, E0: pir.InProcess{Server: s0}, E1: pir.InProcess{Server: s1}}
}

// fetch runs one PBR round: plan the wants, fetch the plan's offsets, and
// key the served bins' rows by table index (dummy bins are dropped).
func fetch(ts *pir.TwoServer, cfg Config, want []uint64, rng *rand.Rand) (map[uint64][]uint32, Plan, pir.CommStats, error) {
	plan, err := BuildPlan(cfg, want, rng)
	if err != nil {
		return nil, Plan{}, pir.CommStats{}, err
	}
	rows, stats, err := ts.Fetch(plan.Offsets)
	if err != nil {
		return nil, Plan{}, stats, err
	}
	out := make(map[uint64][]uint32)
	for b, served := range plan.Served {
		if served >= 0 {
			out[uint64(served)] = rows[b]
		}
	}
	return out, plan, stats, nil
}

func TestConfig(t *testing.T) {
	c := Config{NumRows: 100, BinSize: 32}
	if c.NumBins() != 4 {
		t.Errorf("NumBins = %d, want 4", c.NumBins())
	}
	if r := c.BinRows(3); r != 4 {
		t.Errorf("last bin rows = %d, want 4", r)
	}
	if r := c.BinRows(0); r != 32 {
		t.Errorf("first bin rows = %d, want 32", r)
	}
	if c.BinBits() != 5 {
		t.Errorf("BinBits = %d, want 5", c.BinBits())
	}
	bin, off := c.Bin(70)
	if bin != 2 || off != 6 {
		t.Errorf("Bin(70) = (%d,%d), want (2,6)", bin, off)
	}
	for _, bad := range []Config{{0, 1}, {10, 0}, {10, 11}} {
		if bad.Validate() == nil {
			t.Errorf("config %+v should be invalid", bad)
		}
	}
}

func TestBuildPlan(t *testing.T) {
	cfg := Config{NumRows: 64, BinSize: 16} // 4 bins
	rng := rand.New(rand.NewPCG(1, 0))
	// 3, 5 collide in bin 0; 20 in bin 1; 50 in bin 3. Bin 2 gets a dummy.
	plan, err := BuildPlan(cfg, []uint64{3, 5, 20, 50}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Offsets) != 4 {
		t.Fatalf("plan has %d bins, want 4", len(plan.Offsets))
	}
	if len(plan.Retrieved) != 3 || len(plan.Dropped) != 1 || plan.Dropped[0] != 5 {
		t.Errorf("retrieved %v dropped %v; want first-come-first-served with 5 dropped",
			plan.Retrieved, plan.Dropped)
	}
	if plan.Served[2] != -1 {
		t.Error("bin 2 should be a dummy")
	}
	if got := float64(len(plan.Dropped)) / float64(len(plan.Retrieved)+len(plan.Dropped)); got != 0.25 {
		t.Errorf("drop rate = %g, want 0.25", got)
	}
	// Duplicates are deduped, not dropped.
	plan2, err := BuildPlan(cfg, []uint64{3, 3, 3}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan2.Retrieved) != 1 || len(plan2.Dropped) != 0 {
		t.Errorf("duplicates should dedupe: %+v", plan2)
	}
	// Out-of-range index errors.
	if _, err := BuildPlan(cfg, []uint64{64}, rng); err == nil {
		t.Error("out-of-range index accepted")
	}
}

// TestPlanShapeIsPatternIndependent pins the leakage invariant: the number
// and domain of queries is the same no matter the access pattern.
func TestPlanShapeIsPatternIndependent(t *testing.T) {
	cfg := Config{NumRows: 128, BinSize: 16}
	rng := rand.New(rand.NewPCG(2, 0))
	patterns := [][]uint64{
		{},
		{0},
		{0, 1, 2, 3, 4, 5, 6, 7}, // all in bin 0
		{0, 16, 32, 48, 64, 80, 96, 112},
	}
	for _, p := range patterns {
		plan, err := BuildPlan(cfg, p, rng)
		if err != nil {
			t.Fatal(err)
		}
		if len(plan.Offsets) != cfg.NumBins() {
			t.Errorf("pattern %v: %d queries, want %d regardless of pattern",
				p, len(plan.Offsets), cfg.NumBins())
		}
		for b, off := range plan.Offsets {
			if off >= uint64(cfg.BinRows(b)) {
				t.Errorf("pattern %v: bin %d offset %d outside bin", p, b, off)
			}
		}
	}
}

// TestEndToEnd: PBR retrieves exactly the planned rows, including when the
// last bin is short and gets padded.
func TestEndToEnd(t *testing.T) {
	for _, shape := range []struct{ rows, binSize int }{{64, 16}, {100, 32}, {50, 50}, {33, 8}} {
		cfg := Config{NumRows: shape.rows, BinSize: shape.binSize}
		tab := testTable(t, shape.rows, 3)
		rng := rand.New(rand.NewPCG(3, 0))
		ts := twoServer(t, tab, cfg, rng)
		want := []uint64{0, uint64(shape.rows) - 1, uint64(shape.rows) / 2}
		rows, plan, stats, err := fetch(ts, cfg, want, rng)
		if err != nil {
			t.Fatalf("rows=%d bin=%d: %v", shape.rows, shape.binSize, err)
		}
		for _, idx := range plan.Retrieved {
			got, ok := rows[idx]
			if !ok {
				t.Fatalf("retrieved index %d missing from decode", idx)
			}
			wantRow := tab.Row(int(idx))
			for l := range wantRow {
				if got[l] != wantRow[l] {
					t.Fatalf("rows=%d idx=%d lane=%d: got %d want %d",
						shape.rows, idx, l, got[l], wantRow[l])
				}
			}
		}
		if want := keyBytesPerQuery(cfg); stats.UpBytes != want {
			t.Errorf("UpBytes=%d, model says %d", stats.UpBytes, want)
		}
		// One share of Lanes 4-byte words per bin per server.
		if want := int64(cfg.NumBins()) * int64(tab.Lanes) * 4 * 2; stats.DownBytes != want {
			t.Errorf("DownBytes=%d, model says %d", stats.DownBytes, want)
		}
	}
}

// keyBytesPerQuery is the client→servers key traffic of one PBR round: one
// key per bin per server, in the default early-terminated wire format a
// pir.Client over BinSize rows emits.
func keyBytesPerQuery(cfg Config) int64 {
	bits := cfg.BinBits()
	return int64(cfg.NumBins()) * int64(dpf.MarshaledSizeEarly(bits, 1, dpf.DefaultEarly(bits, 1))) * 2
}

// TestExpectedRetrievalRate: analytic model vs Monte Carlo within 2%.
func TestExpectedRetrievalRate(t *testing.T) {
	cfg := Config{NumRows: 1024, BinSize: 32} // 32 bins
	rng := rand.New(rand.NewPCG(4, 0))
	const q = 16
	const trials = 2000
	got := 0.0
	for trial := 0; trial < trials; trial++ {
		idx := make([]uint64, 0, q)
		seen := map[uint64]bool{}
		for len(idx) < q {
			v := uint64(rng.IntN(cfg.NumRows))
			if !seen[v] {
				seen[v] = true
				idx = append(idx, v)
			}
		}
		plan, err := BuildPlan(cfg, idx, rng)
		if err != nil {
			t.Fatal(err)
		}
		got += float64(len(plan.Retrieved)) / q
	}
	got /= trials
	want := ExpectedRetrievalRate(q, cfg.NumBins())
	if diff := got - want; diff < -0.02 || diff > 0.02 {
		t.Errorf("Monte Carlo retrieval %g vs analytic %g", got, want)
	}
	// Edge cases.
	if ExpectedRetrievalRate(0, 10) != 0 || ExpectedRetrievalRate(10, 0) != 0 {
		t.Error("degenerate inputs should return 0")
	}
	if r := ExpectedRetrievalRate(1, 10); r < 1-1e-9 || r > 1+1e-9 {
		t.Errorf("single query never drops: %g", r)
	}
}

// TestBinTradeoffMonotonicity pins §4.1: shrinking bins monotonically
// improves retrieval (fewer collisions) at the price of more key traffic.
func TestBinTradeoffMonotonicity(t *testing.T) {
	const rows = 4096
	const q = 32
	prevRate := -1.0
	prevComm := int64(-1)
	for _, binSize := range []int{1024, 256, 64, 16} {
		cfg := Config{NumRows: rows, BinSize: binSize}
		rate := ExpectedRetrievalRate(q, cfg.NumBins())
		comm := keyBytesPerQuery(cfg)
		if rate < prevRate {
			t.Errorf("binSize=%d: retrieval rate %g decreased", binSize, rate)
		}
		if comm < prevComm {
			t.Errorf("binSize=%d: comm %d should grow as bins multiply", binSize, comm)
		}
		prevRate, prevComm = rate, comm
	}
}

// TestQuickDecodeMatchesTable: random index sets always decode to exact
// rows for everything the plan retrieved.
func TestQuickDecodeMatchesTable(t *testing.T) {
	cfg := Config{NumRows: 128, BinSize: 32}
	tab := testTable(t, cfg.NumRows, 2)
	rng := rand.New(rand.NewPCG(5, 0))
	ts := twoServer(t, tab, cfg, rng)
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 20 {
			raw = raw[:20]
		}
		idx := make([]uint64, len(raw))
		for i, r := range raw {
			idx[i] = uint64(r) % uint64(cfg.NumRows)
		}
		rows, plan, _, err := fetch(ts, cfg, idx, rng)
		if err != nil {
			return false
		}
		for _, ridx := range plan.Retrieved {
			want := tab.Row(int(ridx))
			got := rows[ridx]
			for l := range want {
				if got[l] != want[l] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestServerAnswerValidation: wrong key counts are rejected.
func TestServerAnswerValidation(t *testing.T) {
	cfg := Config{NumRows: 64, BinSize: 16}
	tab := testTable(t, 64, 1)
	s0, err := NewServer(0, tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s0.Answer([][]byte{{1}}); err == nil {
		t.Error("wrong key count accepted")
	}
}
