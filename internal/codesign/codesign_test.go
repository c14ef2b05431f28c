package codesign

import (
	"math/rand/v2"
	"testing"
	"time"

	"gpudpf/internal/data"
	"gpudpf/internal/model"
)

// fixture builds a small table with strong frequency skew and clean
// co-occurrence pairs: even item 2k always co-occurs with 2k+1.
func fixture(items int) (freq []int64, co [][]uint64, traces [][]uint64) {
	freq = make([]int64, items)
	for i := range freq {
		freq[i] = int64(items - i) // index 0 most frequent
	}
	co = make([][]uint64, items)
	for i := 0; i < items-1; i += 2 {
		co[i] = []uint64{uint64(i + 1)}
		co[i+1] = []uint64{uint64(i)}
	}
	rng := rand.New(rand.NewPCG(1, 0))
	for t := 0; t < 200; t++ {
		base := uint64(rng.IntN(items/2)) * 2
		traces = append(traces, []uint64{base, base + 1, uint64(rng.IntN(items))})
	}
	return
}

func TestBuildLayoutIdentity(t *testing.T) {
	freq, co, _ := fixture(32)
	l, err := BuildLayout(32, 4, freq, co, Params{C: 0, HotRows: 0, QFull: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Groups) != 32 {
		t.Errorf("C=0 should keep %d groups, got %d", 32, len(l.Groups))
	}
	if l.GroupLanes() != 4 {
		t.Errorf("GroupLanes = %d, want 4", l.GroupLanes())
	}
	for i := 0; i < 32; i++ {
		if l.SlotOf[i] != 0 {
			t.Fatal("C=0 slots must be 0")
		}
		if len(l.Groups[l.RowOf[i]]) != 1 || l.Groups[l.RowOf[i]][0] != uint64(i) {
			t.Fatal("C=0 groups must be singletons")
		}
	}
	if l.EffectiveQHot() != 0 || l.EffectiveQFull() != 4 {
		t.Errorf("budgets = %d/%d, want 0/4", l.EffectiveQHot(), l.EffectiveQFull())
	}
}

func TestBuildLayoutColocation(t *testing.T) {
	freq, co, _ := fixture(32)
	l, err := BuildLayout(32, 4, freq, co, Params{C: 1, QFull: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Groups) != 16 {
		t.Errorf("pairing should halve groups: %d", len(l.Groups))
	}
	// Every item maps to exactly one (row, slot) and decodes back.
	seen := map[[2]int32]bool{}
	for i := 0; i < 32; i++ {
		key := [2]int32{l.RowOf[i], int32(l.SlotOf[i])}
		if seen[key] {
			t.Fatalf("item %d shares a slot", i)
		}
		seen[key] = true
		if l.Groups[l.RowOf[i]][l.SlotOf[i]] != uint64(i) {
			t.Fatalf("item %d: group/slot inversion broken", i)
		}
	}
	// Co-occurring pairs land in the same row.
	for i := 0; i < 32; i += 2 {
		if l.RowOf[i] != l.RowOf[i+1] {
			t.Errorf("pair (%d,%d) not co-located", i, i+1)
		}
	}
}

func TestBuildLayoutHotTable(t *testing.T) {
	freq, co, _ := fixture(32)
	l, err := BuildLayout(32, 4, freq, co, Params{C: 0, HotRows: 8, QHot: 2, QFull: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(l.HotRowIDs) != 8 {
		t.Fatalf("hot table has %d rows, want 8", len(l.HotRowIDs))
	}
	// Most frequent item (0) must be hot.
	if l.HotOf[l.RowOf[0]] < 0 {
		t.Error("most frequent item not in hot table")
	}
	// Least frequent must not be.
	if l.HotOf[l.RowOf[31]] >= 0 {
		t.Error("least frequent item in hot table")
	}
}

func TestBuildLayoutValidation(t *testing.T) {
	freq, co, _ := fixture(16)
	cases := []Params{
		{C: -1, QFull: 1},
		{C: 0, QFull: 0},
		{C: 0, HotRows: 99, QHot: 1, QFull: 1},
		{C: 0, HotRows: 4, QHot: 0, QFull: 1},
	}
	for _, p := range cases {
		if _, err := BuildLayout(16, 2, freq, co, p); err == nil {
			t.Errorf("params %+v accepted", p)
		}
	}
	if _, err := BuildLayout(16, 2, freq[:4], co, Params{QFull: 1}); err == nil {
		t.Error("short freq accepted")
	}
	if _, err := BuildLayout(0, 2, nil, nil, Params{QFull: 1}); err == nil {
		t.Error("zero items accepted")
	}
}

// TestPlanBudgetInvariant pins the leakage property: the number of offsets
// per table equals the effective budget for every access pattern.
func TestPlanBudgetInvariant(t *testing.T) {
	freq, co, _ := fixture(64)
	l, err := BuildLayout(64, 2, freq, co, Params{C: 1, HotRows: 8, QHot: 2, QFull: 4})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(2, 0))
	patterns := [][]uint64{
		{},
		{0},
		{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11},
		{63, 62, 61},
		{70}, // out of range: ignored, shape unchanged
	}
	for _, wanted := range patterns {
		p, err := l.Plan(wanted, rng)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.HotOffsets) != l.EffectiveQHot() {
			t.Errorf("pattern %v: %d hot offsets, want %d", wanted, len(p.HotOffsets), l.EffectiveQHot())
		}
		if len(p.FullOffsets) != l.EffectiveQFull() {
			t.Errorf("pattern %v: %d full offsets, want %d", wanted, len(p.FullOffsets), l.EffectiveQFull())
		}
	}
}

// TestPlanColocationSavesQueries: a pair stored together is satisfied by
// one row retrieval.
func TestPlanColocationSavesQueries(t *testing.T) {
	freq, co, _ := fixture(64)
	l, err := BuildLayout(64, 2, freq, co, Params{C: 1, QFull: 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(3, 0))
	p, err := l.Plan([]uint64{10, 11}, rng) // co-located pair
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Dropped) != 0 || len(p.Retrieved) != 2 {
		t.Errorf("co-located pair should fit one query: retrieved %v dropped %v",
			p.Retrieved, p.Dropped)
	}
	// Without co-location the same pair with QFull=1 must drop one.
	l0, err := BuildLayout(64, 2, freq, co, Params{C: 0, QFull: 1})
	if err != nil {
		t.Fatal(err)
	}
	p0, err := l0.Plan([]uint64{10, 11}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(p0.Dropped) != 1 {
		t.Errorf("uncolocated pair at QFull=1 should drop one, dropped %v", p0.Dropped)
	}
}

// TestPlanPriorityOrder: earlier wanted items win collisions.
func TestPlanPriorityOrder(t *testing.T) {
	freq, co, _ := fixture(64)
	l, err := BuildLayout(64, 2, freq, co, Params{QFull: 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(4, 0))
	p, err := l.Plan([]uint64{30, 20}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Retrieved) != 1 || p.Retrieved[0] != 30 {
		t.Errorf("first wanted item should win: %v", p.Retrieved)
	}
	// OrderByFrequency puts the globally hotter item first.
	ordered := OrderByFrequency([]uint64{30, 20}, freq)
	if ordered[0] != 20 {
		t.Errorf("OrderByFrequency = %v, want 20 first", ordered)
	}
}

// TestSimulateDropsAndCost: hot table + co-location reduce both drops and
// cost vs the plain layout on the fixture workload.
func TestSimulateDropsAndCost(t *testing.T) {
	freq, co, traces := fixture(64)
	rng := rand.New(rand.NewPCG(5, 0))
	plain, err := BuildLayout(64, 2, freq, co, Params{QFull: 2})
	if err != nil {
		t.Fatal(err)
	}
	tuned, err := BuildLayout(64, 2, freq, co, Params{C: 1, HotRows: 8, QHot: 1, QFull: 1})
	if err != nil {
		t.Fatal(err)
	}
	dropRate := func(l *Layout) float64 {
		drops, err := l.SimulateDrops(traces, freq, rng)
		if err != nil {
			t.Fatal(err)
		}
		total, dropped := 0, 0
		for i, tr := range traces {
			total += len(tr)
			for range drops[i] {
				dropped++
			}
		}
		return float64(dropped) / float64(total)
	}
	plainDrop := dropRate(plain)
	tunedDrop := dropRate(tuned)
	// The tuned layout halves the query budget yet should not drop much
	// more than plain, thanks to co-location + hot table.
	if tunedDrop > plainDrop+0.15 {
		t.Errorf("tuned drop %.3f much worse than plain %.3f", tunedDrop, plainDrop)
	}
	plainCost := plain.Cost()
	tunedCost := tuned.Cost()
	if tunedCost.PRFBlocks >= plainCost.PRFBlocks {
		t.Errorf("tuned PRF %d not below plain %d", tunedCost.PRFBlocks, plainCost.PRFBlocks)
	}
	if plainCost.Queries != 2 || tunedCost.Queries != 2 {
		t.Errorf("queries = %d/%d, want 2/2", plainCost.Queries, tunedCost.Queries)
	}
}

// TestBuildTablesAndExtract: serving tables decode back to the exact
// embeddings through grouped rows and the hot copy.
func TestBuildTablesAndExtract(t *testing.T) {
	freq, co, _ := fixture(16)
	l, err := BuildLayout(16, 3, freq, co, Params{C: 1, HotRows: 4, QHot: 1, QFull: 2})
	if err != nil {
		t.Fatal(err)
	}
	emb := make([][]float32, 16)
	for i := range emb {
		emb[i] = []float32{float32(i), float32(i) * 2, float32(i) * 3}
	}
	full, hot, err := l.BuildTables(emb)
	if err != nil {
		t.Fatal(err)
	}
	if hot == nil || hot.NumRows != 4 {
		t.Fatal("hot table missing")
	}
	for i := uint64(0); i < 16; i++ {
		row := full.Row(int(l.RowOf[i]))
		got, err := l.ExtractItem(i, row)
		if err != nil {
			t.Fatal(err)
		}
		for j := range got {
			if got[j] != emb[i][j] {
				t.Fatalf("item %d lane %d: %g != %g", i, j, got[j], emb[i][j])
			}
		}
	}
	// Hot rows mirror their grouped rows.
	for h, r := range l.HotRowIDs {
		hr := hot.Row(h)
		fr := full.Row(int(r))
		for j := range hr {
			if hr[j] != fr[j] {
				t.Fatal("hot row diverges from full row")
			}
		}
	}
	// Validation.
	if _, _, err := l.BuildTables(emb[:3]); err == nil {
		t.Error("short embedding set accepted")
	}
	if _, err := l.ExtractItem(99, full.Row(0)); err == nil {
		t.Error("out-of-range item accepted")
	}
	if _, err := l.ExtractItem(0, []uint32{1}); err == nil {
		t.Error("short row accepted")
	}
}

// TestSearchFindsCodesignWin: on a skewed workload with a tight comm
// budget, the searcher should return candidates and the best one should
// use at least one co-design feature.
func TestSearchFindsCodesignWin(t *testing.T) {
	freq, co, traces := fixture(256)
	s := &Searcher{
		Items: 256, Dim: 2,
		Freq: freq, Cooccur: co,
		Device: model.TeslaV100(),
		PRG:    model.AES128,
		Rng:    rand.New(rand.NewPCG(6, 0)),
		Quality: func(l *Layout) (float64, error) {
			drops, err := l.SimulateDrops(traces, freq, rand.New(rand.NewPCG(7, 0)))
			if err != nil {
				return 0, err
			}
			kept := 0.0
			total := 0.0
			for i, tr := range traces {
				total += float64(len(tr))
				kept += float64(len(tr) - len(drops[i]))
			}
			return kept / total, nil
		},
	}
	space := Space{
		Cs:       []int{0, 1, 2, 4},
		HotFracs: []float64{0, 0.1, 0.2},
		QHots:    []int{2, 4, 8},
		QFulls:   []int{1, 2, 4, 8, 16},
	}
	cands, err := s.Search(space, Budgets{CommBytes: 16 << 10, Latency: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	for i := 1; i < len(cands); i++ {
		if cands[i].QPS > cands[i-1].QPS {
			t.Fatal("candidates not sorted by QPS")
		}
	}
	best, ok := BestMeetingQuality(cands, 0.9)
	if !ok {
		t.Fatal("no candidate reaches 90% retrieval")
	}
	if best.Params.C == 0 && best.Params.HotRows == 0 {
		t.Log("note: best candidate uses no co-design features (acceptable but unexpected)")
	}
	front := ParetoFront(cands)
	if len(front) == 0 || len(front) > len(cands) {
		t.Fatal("bad pareto front")
	}
	for _, f := range front {
		for _, c := range cands {
			if c.QPS > f.QPS && c.Quality > f.Quality {
				t.Fatal("pareto front contains dominated point")
			}
		}
	}
}

// TestCooccurIntegration: layouts built from data.Cooccur statistics group
// genuinely co-occurring items.
func TestCooccurIntegration(t *testing.T) {
	_, _, traces := fixture(64)
	freq := data.Freq(traces, 64)
	co := data.Cooccur(traces, 64, 2)
	l, err := BuildLayout(64, 2, freq, co, Params{C: 1, QFull: 2})
	if err != nil {
		t.Fatal(err)
	}
	together := 0
	checked := 0
	for i := 0; i < 62; i += 2 {
		if freq[i] == 0 {
			continue
		}
		checked++
		if l.RowOf[i] == l.RowOf[i+1] {
			together++
		}
	}
	if checked == 0 {
		t.Skip("fixture produced no pairs")
	}
	if frac := float64(together) / float64(checked); frac < 0.7 {
		t.Errorf("only %.2f of true pairs co-located", frac)
	}
}
