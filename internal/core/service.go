// Package core wires the whole system together: the paper's private
// on-device ML inference service (Figure 1b). A client holds a small
// on-device model and a bounded embedding cache; the two non-colluding
// servers hold the co-design-preprocessed embedding tables (grouped full
// table + hot table); every inference issues a fixed, pattern-independent
// set of PBR queries, reconstructs the retrieved embeddings, and feeds them
// to the on-device model. The per-inference Trace carries the Figure 12
// latency breakdown (Gen, PIR, network, on-device DNN) and exact
// communication bytes.
package core

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"gpudpf/internal/batchpir"
	"gpudpf/internal/codesign"
	"gpudpf/internal/dpf"
	"gpudpf/internal/model"
	"gpudpf/internal/netsim"
	"gpudpf/internal/pir"
)

// Config assembles a Service.
type Config struct {
	// Layout is the co-design serving layout (required).
	Layout *codesign.Layout
	// Freq orders lookups by importance when budgets overflow (training
	// statistics; may be nil for input order).
	Freq []int64
	// CacheEntries bounds the client-side embedding cache (0 disables;
	// §2.3: temporal locality makes only ~2.44% of lookups new).
	CacheEntries int
	// Link models the client↔server network (zero value: netsim.FourG).
	Link netsim.Link
	// Device models the servers' GPU (nil: TeslaV100).
	Device *model.Device
	// ClientCPU models the client device (nil: IntelCorei3).
	ClientCPU *model.CPUModel
	// Seed drives dummy planning and key generation determinism in tests;
	// 0 uses a fixed default.
	Seed int64
}

// Service is a running private embedding service: one client and both
// parties' servers (in-process).
type Service struct {
	cfg    Config
	layout *codesign.Layout
	rng    *rand.Rand

	// mu serializes UpdateEmbeddings against FetchEmbeddings. Each
	// replica's epoch-versioned store already makes its own updates
	// atomic against its own answers (snapshot pinning), but an update
	// must land on BOTH parties' replicas before a fetch may straddle it
	// — a party-0 answer at the new epoch reconstructed against a
	// party-1 answer at the old one is garbage with no error anywhere
	// (and the client rng/cache are single-threaded).
	mu sync.Mutex

	full, hot *table // hot is nil without a hot table
	cache     *embCache
}

// table is one co-design table as both parties serve it: each party's PBR
// bin server behind one two-party fetch, and the reference copy the update
// path patches rows in.
type table struct {
	ts     *pir.TwoServer
	s0, s1 *batchpir.Server
	tab    *pir.Table
}

// newTable builds both parties' bin servers over tab and a client that
// draws its keys from rng.
func newTable(tab *pir.Table, bins batchpir.Config, rng *rand.Rand) (*table, error) {
	client, err := pir.NewClient(dpf.PRGName, bins.BinSize, pir.InsecureSeeded(rng))
	if err != nil {
		return nil, err
	}
	t := &table{tab: tab}
	if t.s0, err = batchpir.NewServer(0, tab, bins); err != nil {
		return nil, err
	}
	if t.s1, err = batchpir.NewServer(1, tab, bins); err != nil {
		return nil, err
	}
	t.ts = &pir.TwoServer{Client: client, E0: pir.InProcess{Server: t.s0}, E1: pir.InProcess{Server: t.s1}}
	return t, nil
}

// update writes one row to both parties' servers.
func (t *table) update(row uint64, vals []uint32) error {
	if err := t.s0.Update(row, vals); err != nil {
		return err
	}
	return t.s1.Update(row, vals)
}

// Trace records one inference's protocol outcome for reporting.
type Trace struct {
	// Wanted is the deduplicated lookup count; CacheHits were served
	// locally; Retrieved and Dropped partition the rest.
	Wanted, CacheHits, Retrieved, Dropped int
	// Comm is the exact application-layer byte count.
	Comm pir.CommStats
	// GenLatency, PIRLatency and NetworkLatency are the modeled
	// components of Figure 12 (the on-device DNN term is the model's
	// FLOPs over the client CPU; callers add it via DNNLatency).
	GenLatency, PIRLatency, NetworkLatency time.Duration
}

// TotalLatency is the modeled end-to-end latency excluding the on-device
// model (add the application's DNN term).
func (t *Trace) TotalLatency() time.Duration {
	return t.GenLatency + t.PIRLatency + t.NetworkLatency
}

// New builds the service over trained embeddings (emb[i] is item i's
// vector, layout.Dim wide).
func New(cfg Config, emb [][]float32) (*Service, error) {
	if cfg.Layout == nil {
		return nil, fmt.Errorf("core: Config.Layout is required")
	}
	if cfg.Device == nil {
		cfg.Device = model.TeslaV100()
	}
	if cfg.ClientCPU == nil {
		cfg.ClientCPU = model.IntelCorei3()
	}
	if cfg.Link.BandwidthBitsPerSec == 0 {
		cfg.Link = netsim.FourG()
	}
	if cfg.Seed == 0 {
		cfg.Seed = 0x5eed
	}
	full, hot, err := cfg.Layout.BuildTables(emb)
	if err != nil {
		return nil, err
	}
	s := &Service{
		cfg:    cfg,
		layout: cfg.Layout,
		rng:    rand.New(rand.NewPCG(uint64(cfg.Seed), 0)),
		cache:  newEmbCache(cfg.CacheEntries),
	}
	if s.full, err = newTable(full, cfg.Layout.FullCfg, s.rng); err != nil {
		return nil, err
	}
	if cfg.Layout.Params.HotRows > 0 {
		if s.hot, err = newTable(hot, cfg.Layout.HotCfg, s.rng); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// FetchEmbeddings privately retrieves the wanted items' embeddings. The
// returned map contains cache hits plus everything the fixed-budget plan
// retrieved; budget-dropped items are simply absent (the model treats them
// as missing features). The Trace reports what happened and at what cost.
func (s *Service) FetchEmbeddings(wanted []uint64) (map[uint64][]float32, *Trace, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	tr := &Trace{}
	out := map[uint64][]float32{}
	var misses []uint64
	seen := map[uint64]bool{}
	for _, it := range wanted {
		if seen[it] {
			continue
		}
		seen[it] = true
		tr.Wanted++
		if v, ok := s.cache.get(it); ok {
			out[it] = v
			tr.CacheHits++
			continue
		}
		misses = append(misses, it)
	}

	// The plan runs even when everything hit the cache: the query count
	// must not reveal cache state.
	plan, err := s.layout.Plan(codesign.OrderByFrequency(misses, s.cfg.Freq), s.rng)
	if err != nil {
		return nil, nil, err
	}
	tr.Retrieved = len(plan.Retrieved)
	tr.Dropped = len(plan.Dropped)

	if err := s.fetch(s.full, plan.FullOffsets, plan.FullServedRows, plan, out, tr); err != nil {
		return nil, nil, err
	}
	if s.hot != nil {
		if err := s.fetch(s.hot, plan.HotOffsets, plan.HotServedRows, plan, out, tr); err != nil {
			return nil, nil, err
		}
	}
	for _, it := range plan.Retrieved {
		if v, ok := out[it]; ok {
			s.cache.put(it, v)
		}
	}
	s.modelLatency(tr)
	tr.NetworkLatency = s.cfg.Link.RoundTrip(tr.Comm.UpBytes/2, tr.Comm.DownBytes/2)
	return out, tr, nil
}

// fetch runs one table's PBR round over the plan's offsets and extracts
// every item a served (non-dummy) bin's row carries into out.
func (s *Service) fetch(t *table, offsets []uint64, servedRows []int64,
	plan *codesign.InferencePlan, out map[uint64][]float32, tr *Trace) error {
	rows, comm, err := t.ts.Fetch(offsets)
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	tr.Comm.UpBytes += comm.UpBytes
	tr.Comm.DownBytes += comm.DownBytes
	for b, row := range rows {
		if servedRows[b] < 0 {
			continue // dummy bin
		}
		for _, item := range plan.RowItems[uint64(servedRows[b])] {
			v, err := s.layout.ExtractItem(item, row)
			if err != nil {
				return err
			}
			out[item] = v
		}
	}
	return nil
}

// modelLatency fills the Gen and PIR terms from the device models.
func (s *Service) modelLatency(tr *Trace) {
	// Client-side Gen: one key pair per bin on the client CPU.
	genCycles := 0.0
	genCycles += float64(s.layout.EffectiveQFull()) *
		model.GenProfile(model.AES128.CPUCyclesPerBlock, s.layout.FullCfg.BinBits(), 1)
	if s.layout.Params.HotRows > 0 {
		genCycles += float64(s.layout.EffectiveQHot()) *
			model.GenProfile(model.AES128.CPUCyclesPerBlock, s.layout.HotCfg.BinBits(), 1)
	}
	tr.GenLatency = s.cfg.ClientCPU.CPUTime(genCycles, 1)

	// Server-side Eval, amortized per inference at the tuned batch size
	// (the paper's throughput-serving story; see Layout.Throughput).
	if qps, batchLat, batch, err := s.layout.Throughput(s.cfg.Device, model.AES128, 0); err == nil && qps > 0 {
		tr.PIRLatency = time.Duration(float64(batchLat) / float64(batch))
	}
}

// UpdateEmbeddings applies in-place value updates to the protected table on
// both servers — the paper's transparent update path (§4.2): table entries
// change when the model is re-trained, but as long as indexing does not
// change, nothing on the client needs to be redeployed. Updated items are
// invalidated from the client cache; affected hot-table copies are kept in
// sync. Insertions/deletions (which change indexing) require rebuilding the
// layout and redeploying the client map, exactly as in the paper.
func (s *Service) UpdateEmbeddings(updates map[uint64][]float32) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for item, vec := range updates {
		if item >= uint64(s.layout.Items) {
			return fmt.Errorf("core: update for item %d outside table of %d items", item, s.layout.Items)
		}
		if len(vec) != s.layout.Dim {
			return fmt.Errorf("core: item %d update has %d lanes, want %d", item, len(vec), s.layout.Dim)
		}
		row := int(s.layout.RowOf[item])
		slot := int(s.layout.SlotOf[item])
		// Patch the grouped row in our reference copy, then push the whole
		// row to every replica that holds it.
		rowData := s.full.tab.Row(row)
		pir.PackFloats(rowData[slot*s.layout.Dim:(slot+1)*s.layout.Dim], vec)
		if err := s.full.update(uint64(row), rowData); err != nil {
			return err
		}
		if hot := s.layout.HotOf[row]; hot >= 0 {
			copy(s.hot.tab.Row(int(hot)), rowData)
			if err := s.hot.update(uint64(hot), rowData); err != nil {
				return err
			}
		}
		// The client must not serve the stale value; co-located neighbours
		// in the same row are unchanged and may stay cached.
		s.cache.invalidate(item)
	}
	return nil
}
