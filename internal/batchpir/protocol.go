package batchpir

import (
	"context"
	"fmt"
	"runtime"

	"gpudpf/internal/engine"
	"gpudpf/internal/pir"
	"gpudpf/internal/strategy"
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

// Answer evaluates one key per bin, fanning the bins across GOMAXPROCS
// workers, and returns one share row per bin. It has pir.Answerer's
// shape, so pir.InProcess serves it to a pir.TwoServer.
func (s *Server) Answer(keys [][]byte) ([][]uint32, error) {
	if len(keys) != len(s.bins) {
		return nil, fmt.Errorf("batchpir: got %d keys for %d bins", len(keys), len(s.bins))
	}
	out := make([][]uint32, len(keys))
	errs := make([]error, len(keys))
	strategy.ParallelFor(len(s.bins), runtime.GOMAXPROCS(0), func(b int) {
		ans, err := s.bins[b].Answer(context.Background(), [][]byte{keys[b]})
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
