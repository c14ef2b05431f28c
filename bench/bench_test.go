package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"gpudpf/internal/pir"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentileAndMedian(t *testing.T) {
	vals := []float64{9, 1, 5, 3, 7, 2, 8, 4, 6, 10}
	for _, c := range []struct{ p, want float64 }{{0.5, 5}, {0.9, 9}, {0.99, 10}, {1, 10}, {0.01, 1}} {
		if got := percentile(vals, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if vals[0] != 9 {
		t.Error("percentile sorted its input in place")
	}
	if got := median(vals); got != 5.5 {
		t.Errorf("median of ten = %v, want 5.5", got)
	}
	if got := median([]float64{3, 1, 2, 100, 2.5}); got != 2.5 {
		t.Errorf("median of five rounds = %v, want 2.5", got)
	}
	if got := spread([]float64{90, 100, 110}); !near(got, 0.2) {
		t.Errorf("spread = %v, want 0.2", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if got := quartileSpread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("quartileSpread = %v, want 1", got)
	}
	// statistics.quantiles([10, 11, 12, 13, 30], n=4) == [10.5, 12.0, 21.5]
	if got := quartileSpread([]float64{30, 10, 12, 11, 13}); !near(got, 11.0/12) {
		t.Errorf("quartileSpread = %v, want %v", got, 11.0/12)
	}
}

func TestCovered(t *testing.T) {
	sp := func(a, b int64) *span { return &span{Start: a, End: b} }
	for _, c := range []struct {
		spans []*span
		want  int64
	}{
		{nil, 0},
		{[]*span{sp(10, 20)}, 10},
		{[]*span{sp(10, 60), sp(20, 90)}, 80}, // overlap counted once
		{[]*span{sp(50, 70), sp(10, 20), sp(15, 30)}, 40}, // unsorted, gap
		{[]*span{sp(-50, 10), sp(95, 200)}, 15},           // clipped to [0, 100)
	} {
		if got := covered(0, 100, c.spans); got != c.want {
			t.Errorf("covered(%v) = %d, want %d", c.spans, got, c.want)
		}
	}
}

// TestSelfTimes builds one replica-path request and one cluster-path
// request by hand and checks every layer's self time.
func TestSelfTimes(t *testing.T) {
	const ms = 1e6
	replica := []span{
		{ID: 1, Name: spanClient, Start: 0, End: 100 * ms, Request: 7},
		{ID: 2, Parent: 1, Name: spanFront, Start: 10 * ms, End: 90 * ms, Request: 7},
		{ID: 3, Parent: 2, Name: spanEngine, Start: 30 * ms, End: 80 * ms, Request: 7, Requests: []uint64{7}},
		{ID: 4, Parent: 3, Name: spanStrategy, Start: 35 * ms, End: 75 * ms, Request: 7},
	}
	m := analyze(replica)
	for name, want := range map[string]float64{
		"pir.transport_self_ms_per_request": 20,
		"serving.front_ms_per_request":      80,
		"serving.self_ms_per_request":       30,
		"engine.answer_ms_per_batch":        50,
		"engine.self_ms_per_batch":          10,
		"engine.cluster_self_ms_per_batch":  0,
		"strategy.run_ms_per_batch":         40,
		"trace.client_ms_per_request":       100,
		"trace.layers_sum_ms_per_request":   100,
		"trace.strategy_share_of_engine":    0.8,
		"trace.strategy_share_of_client":    0.4,
	} {
		if !near(m[name], want) {
			t.Errorf("replica path: %s = %v, want %v", name, m[name], want)
		}
	}

	cluster := []span{
		{ID: 1, Name: spanClient, Start: 0, End: 120 * ms, Request: 9},
		{ID: 2, Parent: 1, Name: spanFront, Start: 5 * ms, End: 115 * ms, Request: 9},
		{ID: 3, Parent: 2, Name: spanEngine, Start: 10 * ms, End: 110 * ms, Request: 9, Requests: []uint64{9}},
		{ID: 4, Parent: 3, Name: spanRPC, Start: 20 * ms, End: 70 * ms, Request: 9},
		{ID: 5, Parent: 3, Name: spanRPC, Start: 20 * ms, End: 100 * ms, Request: 9},
		{ID: 6, Parent: 4, Name: spanNode, Start: 30 * ms, End: 60 * ms, Request: 9},
		{ID: 7, Parent: 5, Name: spanNode, Start: 40 * ms, End: 90 * ms, Request: 9},
		{ID: 8, Parent: 6, Name: spanStrategy, Start: 35 * ms, End: 55 * ms, Request: 9},
		{ID: 9, Parent: 7, Name: spanStrategy, Start: 50 * ms, End: 80 * ms, Request: 9},
	}
	m = analyze(cluster)
	for name, want := range map[string]float64{
		"pir.transport_self_ms_per_request": 10,
		"serving.self_ms_per_request":       10,
		"engine.cluster_self_ms_per_batch":  20, // 100 - the 80 the two RPCs cover
		"shardnet.rpc_ms_p50":               50,
		"shardnet.self_ms_per_rpc":          25, // (50-30 + 80-50) / 2
		"strategy.run_ms_per_batch":         25,
		// transport 10 + serving 10 + cluster self 20 + the slower RPC's
		// chain: shardnet 30 + node 20 + strategy 30.
		"trace.layers_sum_ms_per_request": 120,
	} {
		if !near(m[name], want) {
			t.Errorf("cluster path: %s = %v, want %v", name, m[name], want)
		}
	}
}

// TestSeedDeterminism is the seeded-PCG idiom: everything random-driven is
// identical for one seed and different for another.
func TestSeedDeterminism(t *testing.T) {
	w, err := workloadByName("paged-update")
	if err != nil {
		t.Fatal(err)
	}
	w = w.quick()
	a, err := makePlan(w, 42, 1, 12)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := makePlan(w, 42, 1, 12)
	if !reflect.DeepEqual(a.conns, b.conns) || !reflect.DeepEqual(a.history, b.history) {
		t.Fatal("same seed gave different row choices, key bytes or update rows")
	}
	updates := 0
	for _, o := range a.conns[0] {
		if o.isUpdate() {
			updates++
		}
	}
	if updates == 0 || a.post == 0 {
		t.Fatalf("plan has %d updates and %d read-backs, want some of each", updates, a.post)
	}
	for _, other := range []struct {
		seed  uint64
		round int
	}{{43, 1}, {42, 2}} {
		c, _ := makePlan(w, other.seed, other.round, 12)
		if reflect.DeepEqual(a.conns[0][0], c.conns[0][0]) {
			t.Errorf("seed %d round %d repeats seed 42 round 1's first request", other.seed, other.round)
		}
	}
	x, y := make([]uint32, 7), make([]uint32, 7)
	fillRow(42, 3, 1, x)
	fillRow(42, 3, 1, y)
	if !reflect.DeepEqual(x, y) {
		t.Error("fillRow is not a function of (seed, row, generation)")
	}
	fillRow(42, 3, 2, y)
	if reflect.DeepEqual(x, y) {
		t.Error("a new write generation left the row unchanged")
	}
}

// TestCheckerCatchesFlip: the reference accepts a correct server and
// reports a mismatch when one table word differs.
func TestCheckerCatchesFlip(t *testing.T) {
	const rows, lanes, seed = 1 << 8, 8, 5
	w := workload{rows: rows, lanes: lanes}
	tab, err := buildTable(w, seed)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := pir.NewServer(0, tab)
	if err != nil {
		t.Fatal(err)
	}
	client, err := pir.NewClient(prgName, rows, pcgReader{pcg(seed, streamKeys)})
	if err != nil {
		t.Fatal(err)
	}
	idx := []uint64{0, 17, 255}
	k0, k1, err := client.QueryBatch(idx)
	if err != nil {
		t.Fatal(err)
	}
	shares, err := srv.Answer(k0)
	if err != nil {
		t.Fatal(err)
	}
	var samples []sample
	for q := range idx {
		samples = append(samples, sample{row: idx[q], key1: k1[q], share0: shares[q]})
	}
	noWrites := func(int, int) int { return 0 }
	rowAt := func(row, gen int, dst []uint32) { fillRow(seed, row, gen, dst) }
	bad, err := checkSamples(rows, lanes, rowAt, noWrites, samples)
	if err != nil || len(bad) != 0 {
		t.Fatalf("correct server: mismatches %v, err %v", bad, err)
	}
	flipped := func(row, gen int, dst []uint32) {
		fillRow(seed, row, gen, dst)
		if row == 100 {
			dst[3] ^= 1
		}
	}
	bad, err = checkSamples(rows, lanes, flipped, noWrites, samples)
	if err != nil || len(bad) == 0 {
		t.Fatalf("one flipped table word: mismatches %v, err %v; want at least one", bad, err)
	}
}

// TestQuickWorkloads runs all four workloads at toy size, untraced and
// traced, and asserts counts only: no wall-clock value.
func TestQuickWorkloads(t *testing.T) {
	const timed = 8
	for _, full := range workloads {
		w := full.quick()
		t.Run(w.name, func(t *testing.T) {
			var plain, traced *roundResult
			for _, on := range []bool{false, true} {
				res, err := runRound(roundConfig{w: w, seed: 3, round: 0, timed: timed, traced: on, dir: t.TempDir(), calib: time.Millisecond})
				if err != nil {
					t.Fatal(err)
				}
				if on {
					traced = res
				} else {
					plain = res
				}
				p := res.Phases["timed"]
				if p.Attempted != 2*timed || p.Failed != 0 || p.Refused != 0 || res.FirstError != "" {
					t.Errorf("traced=%t: timed phase %+v, first error %q", on, p, res.FirstError)
				}
				if len(res.Mismatches) != 0 || res.Metrics["client.verified_keys"] == 0 {
					t.Errorf("traced=%t: verified %v keys, mismatches %v", on, res.Metrics["client.verified_keys"], res.Mismatches)
				}
				if got := res.Metrics["engine.batch_keys_mean"]; got != float64(w.k) {
					t.Errorf("traced=%t: engine.batch_keys_mean = %v, want K = %d", on, got, w.k)
				}
				if res.Metrics["ok_ratio"] != 1 {
					t.Errorf("traced=%t: ok_ratio = %v", on, res.Metrics["ok_ratio"])
				}
			}
			for _, problem := range tracingChanged(plain, traced) {
				t.Error(problem)
			}
			if w.updateEvery > 0 {
				if plain.Metrics["store.epochs_installed"] == 0 || plain.Phases["readback"].Attempted == 0 {
					t.Errorf("updating workload installed %v epochs and read back %d requests", plain.Metrics["store.epochs_installed"], plain.Phases["readback"].Attempted)
				}
			}
			reads := plain.Metrics["client.latency_samples"]
			if got := traced.Metrics["trace.requests_resolved"]; got != reads {
				t.Errorf("trace resolved %v of %v read requests to a front span", got, reads)
			}
			if _, err := os.Stat(traced.TraceFile); err != nil {
				t.Errorf("trace file: %v", err)
			}
			for _, spec := range perLayer {
				if spec.name == "proc.tracing_overhead_ratio" {
					continue // the parent computes it from a pair of rounds
				}
				if _, ok := traced.Metrics[spec.name]; !ok {
					t.Errorf("traced round did not report %s", spec.name)
				}
			}
		})
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the tables in this package.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var contract struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &contract); err != nil {
		t.Fatal(err)
	}
	if len(contract.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the bench", len(contract.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := contract.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the bench has %q: %q", i, got, w.name, w.why)
		}
	}
	check := func(kind string, got []metric, want []metricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the bench", kind, len(got), len(want))
		}
		for i, spec := range want {
			better := "lower"
			if spec.higher {
				better = "higher"
			}
			g := got[i]
			if g.Name != spec.name || g.Unit != spec.unit || g.Better != better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the bench has %+v", kind, i, g, spec)
			}
			if bounded && (g.Bound == nil || *g.Bound != spec.bound) {
				t.Errorf("%s: bound in BENCHMARK.json differs from the bench's %v", spec.name, spec.bound)
			}
		}
	}
	check("end_to_end", contract.EndToEnd, endToEnd, true)
	check("per_layer", contract.PerLayer, perLayer, false)
	if contract.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the bench's default -seconds is %d", contract.RunSeconds, defaultSeconds)
	}
}
