package core

import (
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"testing"

	"gpudpf/internal/codesign"
	"gpudpf/internal/netsim"
	"gpudpf/internal/pir"
)

// testService builds a service over a 64-item table with co-location pairs
// (2k, 2k+1) and a hot table.
func testService(t *testing.T, p codesign.Params, cacheEntries int) (*Service, [][]float32, []int64) {
	t.Helper()
	const items = 64
	freq := make([]int64, items)
	co := make([][]uint64, items)
	for i := 0; i < items; i++ {
		freq[i] = int64(items - i)
		if i%2 == 0 {
			co[i] = []uint64{uint64(i + 1)}
		} else {
			co[i] = []uint64{uint64(i - 1)}
		}
	}
	layout, err := codesign.BuildLayout(items, 4, freq, co, p)
	if err != nil {
		t.Fatal(err)
	}
	emb := make([][]float32, items)
	for i := range emb {
		emb[i] = []float32{float32(i), float32(i) + 0.5, -float32(i), 1}
	}
	svc, err := New(Config{
		Layout:       layout,
		Freq:         freq,
		CacheEntries: cacheEntries,
		Link:         netsim.LAN(),
		Seed:         42,
	}, emb)
	if err != nil {
		t.Fatal(err)
	}
	return svc, emb, freq
}

func checkEmb(t *testing.T, got map[uint64][]float32, emb [][]float32, item uint64) {
	t.Helper()
	v, ok := got[item]
	if !ok {
		t.Fatalf("item %d not returned", item)
	}
	for j := range v {
		if v[j] != emb[item][j] {
			t.Fatalf("item %d lane %d: %g != %g", item, j, v[j], emb[item][j])
		}
	}
}

// TestFetchExactEmbeddings: every retrieved item's embedding is bit-exact,
// across plain / colocated / hot-table layouts.
func TestFetchExactEmbeddings(t *testing.T) {
	layouts := []struct {
		p      codesign.Params
		wanted []uint64
	}{
		// With C=0 and QFull=8, bins are 8 rows wide: pick bin-distinct
		// items. With C=1 the pair (2,3) shares a grouped row.
		{codesign.Params{C: 0, QFull: 8}, []uint64{2, 13, 40, 63}},
		{codesign.Params{C: 1, QFull: 8}, []uint64{2, 3, 40, 63}},
		{codesign.Params{C: 1, HotRows: 8, QHot: 4, QFull: 8}, []uint64{2, 3, 40, 63}},
	}
	for _, tc := range layouts {
		p := tc.p
		svc, emb, _ := testService(t, p, 0)
		got, tr, err := svc.FetchEmbeddings(tc.wanted)
		if err != nil {
			t.Fatalf("%+v: %v", p, err)
		}
		if tr.Dropped > 0 {
			// With generous budgets nothing should drop here.
			t.Fatalf("%+v: unexpected drops %d", p, tr.Dropped)
		}
		for _, it := range tc.wanted {
			checkEmb(t, got, emb, it)
		}
		if tr.Comm.UpBytes <= 0 || tr.Comm.DownBytes <= 0 {
			t.Error("comm bytes not accounted")
		}
		if tr.TotalLatency() <= 0 {
			t.Error("latency model returned zero")
		}
	}
}

// TestBudgetDropsAreReported: an over-budget inference drops the least
// important items and reports it.
func TestBudgetDropsAreReported(t *testing.T) {
	svc, emb, _ := testService(t, codesign.Params{C: 0, QFull: 1}, 0)
	// Two items in the same bin region with QFull=1: one must drop; the
	// globally more frequent (lower index) must win.
	got, tr, err := svc.FetchEmbeddings([]uint64{40, 2})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Retrieved != 1 || tr.Dropped != 1 {
		t.Fatalf("retrieved/dropped = %d/%d, want 1/1", tr.Retrieved, tr.Dropped)
	}
	checkEmb(t, got, emb, 2)
	if _, ok := got[40]; ok {
		t.Error("item 40 should have been dropped (lower frequency)")
	}
}

// TestCacheReducesPressure: with the cache on, repeated fetches hit locally
// and stop competing for the budget (§2.3), while the query count the
// servers see is unchanged.
func TestCacheReducesPressure(t *testing.T) {
	svc, emb, _ := testService(t, codesign.Params{C: 0, QFull: 2}, 16)
	// QFull=2 over 64 rows → two 32-row bins. First inference: fetch 2
	// (bin 0) and 40 (bin 1).
	_, tr1, err := svc.FetchEmbeddings([]uint64{2, 40})
	if err != nil {
		t.Fatal(err)
	}
	if tr1.CacheHits != 0 || len(svc.cache.items) == 0 {
		t.Fatalf("first fetch should miss and fill cache: %+v", tr1)
	}
	// Second inference re-uses 2 and 40 and adds one new item per bin: the
	// cached pair frees the whole budget for the new items.
	got, tr2, err := svc.FetchEmbeddings([]uint64{2, 40, 30, 50})
	if err != nil {
		t.Fatal(err)
	}
	if tr2.CacheHits != 2 {
		t.Fatalf("cache hits = %d, want 2", tr2.CacheHits)
	}
	if tr2.Dropped != 0 {
		t.Fatalf("budget should fit the two new items, dropped %d", tr2.Dropped)
	}
	for _, it := range []uint64{2, 40, 30, 50} {
		checkEmb(t, got, emb, it)
	}
	// Comm is identical whether or not the cache hit (leakage invariant).
	if tr2.Comm != tr1.Comm {
		t.Errorf("comm changed with cache state: %+v vs %+v", tr1.Comm, tr2.Comm)
	}
}

// TestCacheEviction: the cache never exceeds its capacity.
func TestCacheEviction(t *testing.T) {
	c := newEmbCache(2)
	c.put(1, []float32{1})
	c.put(2, []float32{2})
	c.put(3, []float32{3})
	if len(c.items) != 2 {
		t.Fatalf("cache len %d, want 2", len(c.items))
	}
	if _, ok := c.get(1); ok {
		t.Error("oldest entry should have been evicted")
	}
	if _, ok := c.get(3); !ok {
		t.Error("newest entry missing")
	}
	// Zero-capacity cache is inert.
	z := newEmbCache(0)
	z.put(1, []float32{1})
	if _, ok := z.get(1); ok || len(z.items) != 0 {
		t.Error("zero-cap cache should store nothing")
	}
}

// TestFixedQueryShape: the servers see the same number of keys per
// inference for wildly different access patterns.
func TestFixedQueryShape(t *testing.T) {
	svc, _, _ := testService(t, codesign.Params{C: 1, HotRows: 8, QHot: 2, QFull: 4}, 0)
	var comms []int64
	for _, wanted := range [][]uint64{{}, {0}, {0, 1, 2, 3, 4, 5, 6, 7}, {63}} {
		_, tr, err := svc.FetchEmbeddings(wanted)
		if err != nil {
			t.Fatal(err)
		}
		comms = append(comms, tr.Comm.Total())
	}
	for i := 1; i < len(comms); i++ {
		if comms[i] != comms[0] {
			t.Fatalf("communication varies with access pattern: %v", comms)
		}
	}
}

// TestConfigValidation.
func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}, nil); err == nil {
		t.Error("missing layout accepted")
	}
	freq := make([]int64, 8)
	layout, err := codesign.BuildLayout(8, 2, freq, nil, codesign.Params{QFull: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Layout: layout}, make([][]float32, 3)); err == nil {
		t.Error("short embeddings accepted")
	}
}

// TestDeterministicWithSeed: same seed, same traces.
func TestDeterministicWithSeed(t *testing.T) {
	mk := func() *Trace {
		svc, _, _ := testService(t, codesign.Params{C: 0, QFull: 4}, 0)
		_, tr, err := svc.FetchEmbeddings([]uint64{1, 5, 9})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	a, b := mk(), mk()
	if a.Comm != b.Comm || a.Retrieved != b.Retrieved {
		t.Error("same seed produced different traces")
	}
}

// recordingEndpoint hashes every key batch it forwards.
type recordingEndpoint struct {
	pir.Endpoint
	h hash.Hash
}

func (r recordingEndpoint) Answer(keys [][]byte) ([][]uint32, error) {
	for _, k := range keys {
		r.h.Write(k)
	}
	return r.Endpoint.Answer(keys)
}

// TestSeededKeyStreamPinned pins the party-0 key bytes a seeded Service
// sends over three fetches on a layout with both tables: the seed's one
// stream draws the plan's dummies, then the full table's keys bin by bin,
// then the hot table's, and a change to that order moves the digest.
func TestSeededKeyStreamPinned(t *testing.T) {
	svc, _, _ := testService(t, codesign.Params{C: 1, HotRows: 8, QHot: 4, QFull: 8}, 8)
	h := sha256.New()
	svc.full.ts.E0 = recordingEndpoint{svc.full.ts.E0, h}
	svc.hot.ts.E0 = recordingEndpoint{svc.hot.ts.E0, h}
	for _, w := range [][]uint64{{2, 3, 40, 63}, {1, 5, 9, 17}, {2, 3, 60}} {
		if _, _, err := svc.FetchEmbeddings(w); err != nil {
			t.Fatal(err)
		}
	}
	const want = "f5fe59f03418da54596dded283906e85599fa3dbbc587812cdc20ef708924f52"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("party-0 key stream digest %s, want %s", got, want)
	}
}
