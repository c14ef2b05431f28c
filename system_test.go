// Integration tests across the whole stack: data generation → training →
// co-design preprocessing → private serving → on-device inference, plus
// the concurrency and locality properties the paper's deployment story
// rests on.
package gpudpf_test

import (
	"math/rand"
	"net"
	"path/filepath"
	"sync"
	"testing"

	"gpudpf/internal/codesign"
	"gpudpf/internal/core"
	"gpudpf/internal/data"
	"gpudpf/internal/dpf"
	"gpudpf/internal/engine"
	"gpudpf/internal/ml"
	"gpudpf/internal/netsim"
	"gpudpf/internal/pir"
	"gpudpf/internal/shardnet"
	"gpudpf/internal/store"
)

// TestFullStackRecommendation trains a tiny recommender, deploys it behind
// the complete private-serving path, and checks that private inference
// with generous budgets produces the same predictions as direct (plaintext)
// inference — the embeddings flowing through DPF-PIR, PBR, co-location and
// the hot table must be bit-exact.
func TestFullStackRecommendation(t *testing.T) {
	cfg := data.RecConfig{
		Name: "it", Items: 512, Genres: 8, Candidates: 50,
		HistoryLen: 8, ZipfS: 1.2, Train: 600, Test: 40,
		SessionLen: 3, Seed: 11,
	}
	ds, err := data.GenRec(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const dim = 8
	rng := rand.New(rand.NewSource(12))
	emb := ml.NewEmbedding(cfg.Items, dim, rng)
	mlp := ml.NewMLP(dim+cfg.Genres, 16, rng)
	feats := func(s data.RecSample, pooled ml.Vec) ml.Vec {
		x := make(ml.Vec, dim+cfg.Genres)
		copy(x, pooled)
		x[dim+s.CandGenre] = 1
		return x
	}
	for e := 0; e < 2; e++ {
		for _, s := range ds.Train {
			pooled := make(ml.Vec, dim)
			emb.Bag(pooled, s.History, nil)
			_, dx := mlp.TrainStep(feats(s, pooled), s.Label, 0.05)
			emb.BagGrad(dx[:dim], s.History, nil, 0.3)
		}
	}

	traces := ds.Traces(true)
	freq := data.Freq(traces, cfg.Items)
	cooc := data.Cooccur(traces, cfg.Items, 2)
	layout, err := codesign.BuildLayout(cfg.Items, dim, freq, cooc, codesign.Params{
		C: 2, HotRows: 32, QHot: 8, QFull: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := core.New(core.Config{
		Layout: layout, Freq: freq, Link: netsim.LAN(), Seed: 13,
	}, emb.Export())
	if err != nil {
		t.Fatal(err)
	}

	exported := emb.Export()
	totalWanted, totalDropped := 0, 0
	for _, s := range ds.Test {
		rows, tr, err := svc.FetchEmbeddings(s.History)
		if err != nil {
			t.Fatal(err)
		}
		totalWanted += tr.Wanted
		totalDropped += tr.Dropped
		// Every retrieved embedding must be bit-exact, and the private
		// pooled feature must equal direct float32 pooling over the same
		// retrieved subset (PBR can drop on bin collisions even with
		// generous budgets; drops are a quality matter, never a
		// correctness one).
		for idx, got := range rows {
			for j := range got {
				if got[j] != exported[idx][j] {
					t.Fatalf("item %d lane %d: private %g != table %g", idx, j, got[j], exported[idx][j])
				}
			}
		}
		private := make(ml.Vec, dim)
		ml.BagFrom(private, rows, s.History)
		direct := map[uint64][]float32{}
		for idx := range rows {
			direct[idx] = exported[idx]
		}
		want := make(ml.Vec, dim)
		ml.BagFrom(want, direct, s.History)
		for j := range want {
			if private[j] != want[j] {
				t.Fatalf("pooled lane %d: private %g != direct %g", j, private[j], want[j])
			}
		}
		if p := mlp.Predict(feats(s, private)); p < 0 || p > 1 {
			t.Fatalf("prediction %g out of range", p)
		}
	}
	if rate := float64(totalDropped) / float64(totalWanted); rate > 0.3 {
		t.Errorf("drop rate %.2f too high for these budgets", rate)
	}
}

// TestTemporalLocalityCacheClaim reproduces §2.3's observation: with
// session locality and a client cache, only a small fraction of lookups
// reaches the servers' budgets (the paper measures 2.44% new features on
// its production trace; our synthetic sessions refresh one slot per step).
func TestTemporalLocalityCacheClaim(t *testing.T) {
	cfg := data.RecConfig{
		Name: "loc", Items: 2048, Genres: 8, Candidates: 50,
		HistoryLen: 20, ZipfS: 1.2, Train: 400, Test: 40,
		SessionLen: 10, Seed: 14,
	}
	ds, err := data.GenRec(cfg)
	if err != nil {
		t.Fatal(err)
	}
	freq := data.Freq(ds.Traces(true), cfg.Items)
	layout, err := codesign.BuildLayout(cfg.Items, 4, freq, nil, codesign.Params{QFull: 32})
	if err != nil {
		t.Fatal(err)
	}
	emb := make([][]float32, cfg.Items)
	for i := range emb {
		emb[i] = []float32{1, 2, 3, 4}
	}
	svc, err := core.New(core.Config{
		Layout: layout, Freq: freq, CacheEntries: 4096, Link: netsim.LAN(), Seed: 15,
	}, emb)
	if err != nil {
		t.Fatal(err)
	}
	wanted, hits := 0, 0
	for _, s := range ds.Train[:200] {
		_, tr, err := svc.FetchEmbeddings(s.History)
		if err != nil {
			t.Fatal(err)
		}
		wanted += tr.Wanted
		hits += tr.CacheHits
	}
	missRate := 1 - float64(hits)/float64(wanted)
	// Sessions of 10 inferences replacing one of 20 slots per step: the
	// steady-state new-feature rate is well under 30%.
	if missRate > 0.30 {
		t.Errorf("cache miss rate %.2f; session locality should make most lookups local", missRate)
	}
	t.Logf("new-feature rate with cache: %.1f%% (paper's production trace: 2.44%%)", missRate*100)
}

// TestDistributedRecommendationTCP runs the recommendation flow's private
// embedding retrieval over real TCP endpoints, twice: against the classic
// two-server pair, and against two 4-shard distributed replicas (each a
// mix of in-process shards and TCP shard nodes holding only their own
// rows). Both paths use the served early-terminated wire-v4 keys and
// must reconstruct the trained embeddings bit-exactly — the property the
// whole two-cloud deployment story rests on.
func TestDistributedRecommendationTCP(t *testing.T) {
	cfg := data.RecConfig{
		Name: "net", Items: 256, Genres: 4, Candidates: 20,
		HistoryLen: 6, ZipfS: 1.2, Train: 200, Test: 8,
		SessionLen: 3, Seed: 51,
	}
	ds, err := data.GenRec(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const dim = 8
	rng := rand.New(rand.NewSource(52))
	emb := ml.NewEmbedding(cfg.Items, dim, rng)
	mlp := ml.NewMLP(dim+cfg.Genres, 8, rng)
	feats := func(s data.RecSample, pooled ml.Vec) ml.Vec {
		x := make(ml.Vec, dim+cfg.Genres)
		copy(x, pooled)
		x[dim+s.CandGenre] = 1
		return x
	}
	for _, s := range ds.Train {
		pooled := make(ml.Vec, dim)
		emb.Bag(pooled, s.History, nil)
		_, dx := mlp.TrainStep(feats(s, pooled), s.Label, 0.05)
		emb.BagGrad(dx[:dim], s.History, nil, 0.3)
	}
	exported := emb.Export()

	// Pack the trained embedding table into a PIR table.
	tab, err := pir.NewTable(cfg.Items, dim)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cfg.Items; i++ {
		pir.PackFloats(tab.Row(i), exported[uint64(i)])
	}

	cl, err := pir.NewClient("aes128", tab.NumRows, rand.New(rand.NewSource(53)))
	if err != nil {
		t.Fatal(err)
	}
	// The deployment default must be early-terminated keys in the served wire.
	k0, _, err := cl.Query(0)
	if err != nil {
		t.Fatal(err)
	}
	if v := dpf.WireVersion(k0); v != dpf.ServedWire {
		t.Fatalf("client emits wire v%d keys, want v%d", v, dpf.ServedWire)
	}

	// Path 1: the classic two-server pair over TCP.
	var tcpEndpoints [2]pir.Endpoint
	for p := 0; p < 2; p++ {
		srv, err := pir.NewServer(p, tab)
		if err != nil {
			t.Fatal(err)
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		go pir.Serve(l, srv)
		e, err := pir.Dial(l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		tcpEndpoints[p] = e
	}

	// Path 2: per party, a 4-shard distributed replica — shards 0 and 2
	// in-process, shards 1 and 3 real shardnet nodes over TCP holding only
	// their own rows.
	const shards = 4
	bounds := make([]int, shards+1)
	for i := 0; i < shards; i++ {
		bounds[i], bounds[i+1] = engine.ShardRange(tab.NumRows, i, shards)
	}
	var clusterEndpoints [2]pir.Endpoint
	for p := 0; p < 2; p++ {
		members := make([]engine.ClusterShard, shards)
		for i := 0; i < shards; i++ {
			if i%2 == 0 {
				rep, err := pir.NewReplica(p, tab)
				if err != nil {
					t.Fatal(err)
				}
				members[i] = engine.ClusterShard{Backend: rep}
				continue
			}
			nodeTab, err := pir.NewTable(tab.NumRows, tab.Lanes)
			if err != nil {
				t.Fatal(err)
			}
			copy(nodeTab.Data[bounds[i]*tab.Lanes:bounds[i+1]*tab.Lanes],
				tab.Data[bounds[i]*tab.Lanes:bounds[i+1]*tab.Lanes])
			rep, err := pir.NewReplica(p, nodeTab)
			if err != nil {
				t.Fatal(err)
			}
			node, err := shardnet.NewServer(rep, shardnet.ServerConfig{RowLo: bounds[i], RowHi: bounds[i+1]})
			if err != nil {
				t.Fatal(err)
			}
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			go node.Serve(l)
			defer node.Close()
			sc, err := shardnet.Dial(l.Addr().String(), shardnet.Options{PRG: "aes128", Party: p})
			if err != nil {
				t.Fatal(err)
			}
			members[i] = engine.ClusterShard{Backend: sc, Name: l.Addr().String()}
		}
		cluster, err := engine.NewCluster(members...)
		if err != nil {
			t.Fatal(err)
		}
		defer cluster.Close()
		clusterEndpoints[p] = pir.BackendEndpoint{Backend: cluster}
	}

	paths := []struct {
		name string
		ts   *pir.TwoServer
	}{
		{"two-server-tcp", &pir.TwoServer{Client: cl, E0: tcpEndpoints[0], E1: tcpEndpoints[1]}},
		{"cluster", &pir.TwoServer{Client: cl, E0: clusterEndpoints[0], E1: clusterEndpoints[1]}},
	}
	for _, s := range ds.Test {
		indices := make([]uint64, 0, len(s.History))
		seen := map[uint64]bool{}
		for _, idx := range s.History {
			if !seen[idx] {
				seen[idx] = true
				indices = append(indices, idx)
			}
		}
		var pooled [2]ml.Vec
		for pi, path := range paths {
			rows, _, err := path.ts.Fetch(indices)
			if err != nil {
				t.Fatalf("%s: %v", path.name, err)
			}
			fetched := map[uint64][]float32{}
			for q, idx := range indices {
				floats := make([]float32, dim)
				pir.UnpackFloats(floats, rows[q])
				for j, got := range floats {
					if got != exported[idx][j] {
						t.Fatalf("%s: item %d lane %d: private %g != table %g", path.name, idx, j, got, exported[idx][j])
					}
				}
				fetched[idx] = floats
			}
			pooled[pi] = make(ml.Vec, dim)
			ml.BagFrom(pooled[pi], fetched, s.History)
			if p := mlp.Predict(feats(s, pooled[pi])); p < 0 || p > 1 {
				t.Fatalf("%s: prediction %g out of range", path.name, p)
			}
		}
		// The two serving paths must agree bit-for-bit with each other.
		for j := range pooled[0] {
			if pooled[0][j] != pooled[1][j] {
				t.Fatalf("pooled lane %d: two-server %g != cluster %g", j, pooled[0][j], pooled[1][j])
			}
		}
	}
}

// TestPagedShardNodesTCP: a cluster whose shard nodes serve their row
// slices out-of-core — each node paging a table file through a cache a
// quarter of its slice — answers bit-identically, over real TCP, to a
// cluster of in-RAM nodes and to the table itself. This is the
// cmd/pirserver "-shardnode -table-file" deployment shape: a table no
// single machine could hold, split across paged nodes.
func TestPagedShardNodesTCP(t *testing.T) {
	const rows, lanes, shards = 1024, 8, 2
	tab, err := pir.NewTable(rows, lanes)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(77))
	for i := range tab.Data {
		tab.Data[i] = rng.Uint32()
	}

	// startNode serves rep's rows [lo, hi) over shardnet TCP and returns a
	// dialed client for it.
	startNode := func(rep *engine.Replica, p, lo, hi int) *shardnet.Client {
		node, err := shardnet.NewServer(rep, shardnet.ServerConfig{RowLo: lo, RowHi: hi})
		if err != nil {
			t.Fatal(err)
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go node.Serve(l)
		t.Cleanup(func() { node.Close() })
		sc, err := shardnet.Dial(l.Addr().String(), shardnet.Options{PRG: "aes128", Party: p})
		if err != nil {
			t.Fatal(err)
		}
		return sc
	}

	// Per party, one cluster of in-RAM nodes and one of paged nodes.
	var ramEp, pagedEp [2]pir.Endpoint
	for p := 0; p < 2; p++ {
		var ramShards, pagedShards []engine.ClusterShard
		for i := 0; i < shards; i++ {
			lo, hi := engine.ShardRange(rows, i, shards)

			nodeTab, err := pir.NewTable(rows, lanes)
			if err != nil {
				t.Fatal(err)
			}
			copy(nodeTab.Data[lo*lanes:hi*lanes], tab.Data[lo*lanes:hi*lanes])
			ramRep, err := pir.NewReplica(p, nodeTab)
			if err != nil {
				t.Fatal(err)
			}
			ramShards = append(ramShards, engine.ClusterShard{Backend: startNode(ramRep, p, lo, hi)})

			// The paged node streams only its slice to disk (rows outside
			// stay zero, as pirserver's openPagedStore writes them) and
			// serves it through a cache a quarter of the slice's bytes, so
			// the sweep really evicts and reloads.
			path := filepath.Join(t.TempDir(), "shard.gpdf")
			err = store.WriteTableFileRows(path, rows, lanes, func(r int, dst []uint32) {
				if r < lo || r >= hi {
					clear(dst)
					return
				}
				copy(dst, tab.Row(r))
			})
			if err != nil {
				t.Fatal(err)
			}
			pb, err := store.OpenPaged(path, store.PagedConfig{
				PageBytes:  1 << 10,
				CacheBytes: int64((hi-lo)*lanes) * 4 / 4,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { pb.Close() })
			st, err := store.NewPaged(pb)
			if err != nil {
				t.Fatal(err)
			}
			pagedRep, err := pir.NewReplicaOverStore(p, st)
			if err != nil {
				t.Fatal(err)
			}
			pagedShards = append(pagedShards, engine.ClusterShard{Backend: startNode(pagedRep, p, lo, hi)})
		}
		ramCluster, err := engine.NewCluster(ramShards...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ramCluster.Close() })
		pagedCluster, err := engine.NewCluster(pagedShards...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { pagedCluster.Close() })
		ramEp[p] = pir.BackendEndpoint{Backend: ramCluster}
		pagedEp[p] = pir.BackendEndpoint{Backend: pagedCluster}
	}

	cl, err := pir.NewClient("aes128", rows, rand.New(rand.NewSource(78)))
	if err != nil {
		t.Fatal(err)
	}
	ram := &pir.TwoServer{Client: cl, E0: ramEp[0], E1: ramEp[1]}
	paged := &pir.TwoServer{Client: cl, E0: pagedEp[0], E1: pagedEp[1]}
	indices := []uint64{0, 7, 511, 512, 513, 1023}
	ramRows, _, err := ram.Fetch(indices)
	if err != nil {
		t.Fatal(err)
	}
	pagedRows, _, err := paged.Fetch(indices)
	if err != nil {
		t.Fatal(err)
	}
	for q, idx := range indices {
		want := tab.Row(int(idx))
		for l := range want {
			if ramRows[q][l] != want[l] {
				t.Fatalf("in-RAM cluster row %d lane %d: %d, want %d", idx, l, ramRows[q][l], want[l])
			}
			if pagedRows[q][l] != want[l] {
				t.Fatalf("paged cluster row %d lane %d: %d, want %d (in-RAM agrees with the table)", idx, l, pagedRows[q][l], want[l])
			}
		}
	}
}

// TestConcurrentTCPClients runs several clients against one TCP server
// pair simultaneously; every client must get its own rows.
func TestConcurrentTCPClients(t *testing.T) {
	tab, err := pir.NewTable(512, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(16))
	for i := range tab.Data {
		tab.Data[i] = rng.Uint32()
	}
	s0, err := pir.NewServer(0, tab)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := pir.NewServer(1, tab)
	if err != nil {
		t.Fatal(err)
	}
	l0, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l0.Close()
	l1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l1.Close()
	go pir.Serve(l0, s0)
	go pir.Serve(l1, s1)

	const clients = 8
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			e0, err := pir.Dial(l0.Addr().String())
			if err != nil {
				t.Error(err)
				return
			}
			defer e0.Close()
			e1, err := pir.Dial(l1.Addr().String())
			if err != nil {
				t.Error(err)
				return
			}
			defer e1.Close()
			cl, err := pir.NewClient("aes128", tab.NumRows, rand.New(rand.NewSource(int64(100+id))))
			if err != nil {
				t.Error(err)
				return
			}
			ts := &pir.TwoServer{Client: cl, E0: e0, E1: e1}
			for round := 0; round < 5; round++ {
				idx := uint64((id*37 + round*101) % tab.NumRows)
				rows, _, err := ts.Fetch([]uint64{idx})
				if err != nil {
					t.Errorf("client %d: %v", id, err)
					return
				}
				want := tab.Row(int(idx))
				for l := range want {
					if rows[0][l] != want[l] {
						t.Errorf("client %d: row %d mismatch", id, idx)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
}
