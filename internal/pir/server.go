package pir

import (
	"context"
	"fmt"

	"gpudpf/internal/dpf"
	"gpudpf/internal/engine"
	"gpudpf/internal/store"
	"gpudpf/internal/strategy"
)

// Server is one of the two non-colluding PIR servers: a thin adapter over
// an engine.Replica that holds a replica of the table and expands client
// keys with a DPF execution strategy. The honest-but-curious server learns
// nothing from a key except the table shape and the query count.
type Server struct {
	eng *engine.Replica
}

// serverConfig collects option state before the engine replica is built.
type serverConfig struct {
	strat strategy.Strategy
	early int // engine.Config.EarlyBits (0 = default)
}

// ServerOption customizes a Server.
type ServerOption func(*serverConfig) error

// WithStrategy runs s exactly as given instead of the default executor
// (strategy.MemBoundTree at every table size) — the seam for
// wrapping a default replica's Strategy() in instrumentation.
func WithStrategy(s strategy.Strategy) ServerOption {
	return func(cfg *serverConfig) error {
		if s == nil {
			return fmt.Errorf("pir: nil strategy")
		}
		cfg.strat = s
		return nil
	}
}

// WithEarly pins the early-termination depth (§3.1) served keys must
// carry, 1..dpf.MaxEarlyBits, which must match the clients' (like the PRF).
// Without this option the server expects the dpf default — what
// pir.NewClient emits. Legacy full-depth wire-v1 keys are not served.
func WithEarly(early int) ServerOption {
	return func(cfg *serverConfig) error {
		if err := checkEarly(early); err != nil {
			return err
		}
		cfg.early = early
		return nil
	}
}

// checkEarly refuses a depth no server serves, naming it.
func checkEarly(early int) error {
	if early < 1 || early > dpf.MaxEarlyBits {
		return fmt.Errorf("pir: early-termination depth %d out of range [1,%d] (full-depth wire-v1 keys are not served)", early, dpf.MaxEarlyBits)
	}
	return nil
}

// NewReplica resolves the server options into an engine replica —
// the shared constructor behind Server and batchpir's per-bin engines.
func NewReplica(party int, tab *Table, opts ...ServerOption) (*engine.Replica, error) {
	if tab == nil || tab.NumRows == 0 {
		return nil, fmt.Errorf("pir: server needs a table")
	}
	var cfg serverConfig
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	return engine.NewReplica(tab, engine.Config{
		Party:     party,
		EarlyBits: cfg.early,
		Strategy:  cfg.strat,
	})
}

// NewServer builds a PIR server for one party (0 or 1) over the table.
func NewServer(party int, tab *Table, opts ...ServerOption) (*Server, error) {
	eng, err := NewReplica(party, tab, opts...)
	if err != nil {
		return nil, err
	}
	return &Server{eng: eng}, nil
}

// NewReplicaOverStore resolves the server options into a replica over an
// existing epoch store — what NewServerOverStore and a paged shard node
// (cmd/pirserver -shardnode -table-file) build on.
func NewReplicaOverStore(party int, st *store.Store, opts ...ServerOption) (*engine.Replica, error) {
	if st == nil {
		return nil, fmt.Errorf("pir: server needs a store")
	}
	var cfg serverConfig
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	return engine.NewReplicaOverStore(st, engine.Config{
		Party:     party,
		EarlyBits: cfg.early,
		Strategy:  cfg.strat,
	})
}

// NewServerOverStore builds a PIR server over an existing epoch store —
// the out-of-core entry point: the store may be paged off a table file
// (store.NewPaged), so the server answers queries against a table larger
// than memory without ever materializing it.
func NewServerOverStore(party int, st *store.Store, opts ...ServerOption) (*Server, error) {
	eng, err := NewReplicaOverStore(party, st, opts...)
	if err != nil {
		return nil, err
	}
	return &Server{eng: eng}, nil
}

// Engine returns the underlying engine replica — the Backend seam callers
// plug into for batched serving (serving.NewFront) or direct
// context-aware answering.
func (s *Server) Engine() *engine.Replica { return s.eng }

// Answer expands a batch of marshaled keys against the table and returns
// one answer share per key. Keys for the wrong party or the wrong table
// shape are rejected.
func (s *Server) Answer(rawKeys [][]byte) ([][]uint32, error) {
	answers, err := s.eng.Answer(context.Background(), rawKeys)
	if err != nil {
		return nil, fmt.Errorf("pir: %w", err)
	}
	return answers, nil
}

// UpdateBatch overwrites a set of rows (the paper's transparent update
// path, §4.2) atomically as ONE new table epoch: an Answer sees all of the
// batch's writes or none, and in-flight Answers keep the snapshot they
// pinned. Returns the installed epoch.
func (s *Server) UpdateBatch(writes []engine.RowWrite) (uint64, error) {
	epoch, err := s.eng.UpdateBatch(context.Background(), writes)
	if err != nil {
		return 0, fmt.Errorf("pir: %w", err)
	}
	return epoch, nil
}
