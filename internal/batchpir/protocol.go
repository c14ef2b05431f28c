package batchpir

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand/v2"

	"gpudpf/internal/engine"
	"gpudpf/internal/gpu"
	"gpudpf/internal/pir"
)

// Server is one party's PBR server: a thin adapter over one engine.Replica
// per bin. Bins are independent sub-tables, so a round's per-bin queries
// are evaluated concurrently on the host's bounded worker pool instead of
// bin-by-bin — the batch-parallel serving loop the paper's throughput
// numbers assume.
type Server struct {
	cfg  Config
	bins []*engine.Replica
}

// NewServer splits the table per cfg and builds per-bin engine replicas for
// the given party.
func NewServer(party int, tab *pir.Table, cfg Config, opts ...pir.ServerOption) (*Server, error) {
	binTabs, err := SplitTable(cfg, tab)
	if err != nil {
		return nil, err
	}
	s := &Server{cfg: cfg, bins: make([]*engine.Replica, len(binTabs))}
	for b, bt := range binTabs {
		s.bins[b], err = pir.NewReplica(party, bt, opts...)
		if err != nil {
			return nil, fmt.Errorf("batchpir: bin %d: %w", b, err)
		}
	}
	return s, nil
}

// Update overwrites one row's content in place (an embedding-table value
// update without insertion/deletion — the paper's transparent update path,
// §4.2 "Changes to Embedding Table"). Clients are unaffected: indexing and
// key shapes do not change. The write lands as a new epoch of the affected
// bin's store; in-flight Answers keep their pinned snapshot.
func (s *Server) Update(row uint64, vals []uint32) error {
	if row >= uint64(s.cfg.NumRows) {
		return fmt.Errorf("batchpir: update row %d outside table of %d rows", row, s.cfg.NumRows)
	}
	bin, off := s.cfg.Bin(row)
	if _, err := s.bins[bin].UpdateBatch(context.Background(), []engine.RowWrite{{Row: off, Vals: vals}}); err != nil {
		return fmt.Errorf("batchpir: %w", err)
	}
	return nil
}

// Answer evaluates one key per bin and returns one share row per bin.
func (s *Server) Answer(keys [][]byte) ([][]uint32, error) {
	return s.AnswerContext(context.Background(), keys)
}

// AnswerContext is Answer with cancellation: bins are fanned across the
// bounded host pool, and ctx stops unstarted bins.
func (s *Server) AnswerContext(ctx context.Context, keys [][]byte) ([][]uint32, error) {
	if len(keys) != len(s.bins) {
		return nil, fmt.Errorf("batchpir: got %d keys for %d bins", len(keys), len(s.bins))
	}
	out := make([][]uint32, len(keys))
	errs := make([]error, len(keys))
	gpu.ParallelFor(len(s.bins), func(b int) {
		ans, err := s.bins[b].Answer(ctx, [][]byte{keys[b]})
		if err != nil {
			errs[b] = err
			return
		}
		out[b] = ans[0]
	})
	for b, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("batchpir: bin %d: %w", b, err)
		}
	}
	return out, nil
}

// Client plans PBR rounds and generates per-bin keys.
type Client struct {
	cfg Config
	pc  *pir.Client
	rng *rand.Rand
}

// rngReader adapts the planning RNG into the io.Reader key generation
// consumes, so one seeded stream drives both dummy offsets and keys in
// reproducible tests.
type rngReader struct{ rng *rand.Rand }

func (r rngReader) Read(p []byte) (n int, err error) {
	for len(p) >= 8 {
		binary.LittleEndian.PutUint64(p, r.rng.Uint64())
		p = p[8:]
		n += 8
	}
	if len(p) > 0 {
		v := r.rng.Uint64()
		for i := range p {
			p[i] = byte(v >> (8 * i))
		}
		n += len(p)
	}
	return n, nil
}

// NewClient builds a PBR client. rng drives dummy-offset selection and key
// generation (pass a seeded source for reproducible tests; nil draws a
// random seed and keeps crypto/rand for key generation).
func NewClient(prgName string, cfg Config, rng *rand.Rand) (*Client, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var keyRng io.Reader
	if rng == nil {
		rng = rand.New(rand.NewPCG(rand.Uint64(), rand.Uint64()))
	} else {
		keyRng = rngReader{rng}
	}
	pc, err := pir.NewClient(prgName, cfg.BinSize, keyRng)
	if err != nil {
		return nil, err
	}
	return &Client{cfg: cfg, pc: pc, rng: rng}, nil
}

// KeysForOffsets generates one key pair per bin for externally planned
// offsets (e.g. a codesign.Layout plan that routed rows across hot and full
// tables). len(offsets) must equal the bin count.
func (c *Client) KeysForOffsets(offsets []uint64) ([][]byte, [][]byte, error) {
	if len(offsets) != c.cfg.NumBins() {
		return nil, nil, fmt.Errorf("batchpir: %d offsets for %d bins", len(offsets), c.cfg.NumBins())
	}
	keys0 := make([][]byte, len(offsets))
	keys1 := make([][]byte, len(offsets))
	var err error
	for b, off := range offsets {
		keys0[b], keys1[b], err = c.pc.Query(off)
		if err != nil {
			return nil, nil, err
		}
	}
	return keys0, keys1, nil
}

// Queries plans the wanted indices and generates one key pair per bin.
func (c *Client) Queries(indices []uint64) (Plan, [][]byte, [][]byte, error) {
	plan, err := BuildPlan(c.cfg, indices, c.rng)
	if err != nil {
		return Plan{}, nil, nil, err
	}
	keys0 := make([][]byte, len(plan.Offsets))
	keys1 := make([][]byte, len(plan.Offsets))
	for b, off := range plan.Offsets {
		keys0[b], keys1[b], err = c.pc.Query(off)
		if err != nil {
			return Plan{}, nil, nil, err
		}
	}
	return plan, keys0, keys1, nil
}

// Decode reconstructs the retrieved rows from the two servers' per-bin
// shares, keyed by original table index. Dummy bins are discarded.
func Decode(plan Plan, shares0, shares1 [][]uint32) (map[uint64][]uint32, error) {
	if len(shares0) != len(plan.Offsets) || len(shares1) != len(plan.Offsets) {
		return nil, fmt.Errorf("batchpir: share count %d/%d does not match %d bins",
			len(shares0), len(shares1), len(plan.Offsets))
	}
	out := make(map[uint64][]uint32)
	for b, served := range plan.Served {
		if served < 0 {
			continue
		}
		row, err := pir.Reconstruct(shares0[b], shares1[b])
		if err != nil {
			return nil, err
		}
		out[uint64(served)] = row
	}
	return out, nil
}

// TwoServer composes a client with both parties' servers (in-process).
type TwoServer struct {
	Client *Client
	S0, S1 *Server
}

// Fetch runs one PBR round: it returns the retrieved rows by index, the
// plan (including drops), and the exact communication cost.
func (ts *TwoServer) Fetch(indices []uint64) (map[uint64][]uint32, Plan, pir.CommStats, error) {
	var stats pir.CommStats
	plan, k0, k1, err := ts.Client.Queries(indices)
	if err != nil {
		return nil, Plan{}, stats, err
	}
	for b := range k0 {
		stats.UpBytes += int64(len(k0[b]) + len(k1[b]))
	}
	a0, err := ts.S0.Answer(k0)
	if err != nil {
		return nil, Plan{}, stats, err
	}
	a1, err := ts.S1.Answer(k1)
	if err != nil {
		return nil, Plan{}, stats, err
	}
	for b := range a0 {
		stats.DownBytes += int64(len(a0[b])+len(a1[b])) * 4
	}
	rows, err := Decode(plan, a0, a1)
	if err != nil {
		return nil, Plan{}, stats, err
	}
	return rows, plan, stats, nil
}
