// Package engine unifies the server-side request path behind one seam
// (capability.go): the Backend interface every consumer (pir.Server,
// batchpir.Server, core.Service, serving.Front, cmd/pirserver) routes
// answers and updates through, the Member interface a Cluster or a shard
// node holds, and Replica, which answers each key batch with one
// RunRangeInto over one pinned table snapshot. How a batch uses the cores
// is the strategy's tile loop's decision, under one budget: GOMAXPROCS.
// Shares are additive (mod 2^32, lane-wise), so a Cluster's per-shard
// partial sums merge into exactly the answers one replica produces — the
// same linearity the paper's multi-GPU scheme exploits (§3.2.7).
package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"gpudpf/internal/dpf"
	"gpudpf/internal/store"
	"gpudpf/internal/strategy"
)

// Config assembles a Replica.
type Config struct {
	// Party is which share (0 or 1) the replica computes.
	Party int
	// PRG is the PRF the replica computes; nil is aes128, the one PRF
	// this build serves (dpf.NewPRG). Only tests set it, to inject
	// decorated or foreign-construction fakes. A client or front on
	// another PRF is refused at dial: the wire hello pins the PRF's name
	// and construction ID (shardnet). Key validation errors name the
	// replica's PRF too, for callers that dial without pins, where a
	// mismatch would otherwise come back as garbage shares.
	PRG dpf.PRG
	// Strategy, when set, is run exactly as given (no worker budget is
	// bound into it) — the seam for wrapping a default replica's
	// Strategy() in instrumentation. nil runs the default executor,
	// strategy.MemBoundTree{K: DefaultK} with GOMAXPROCS workers, at
	// every table size.
	Strategy strategy.Strategy
}

// Replica is the Backend over one party's table replica. The table lives
// in an epoch-versioned store.Store: every Answer pins one immutable
// snapshot for the whole batch, and updates install new epochs without
// blocking readers — UpdateBatch/Answer share no lock at all.
type Replica struct {
	party uint8
	prg   dpf.PRG
	early int // the table's served early-termination depth (dpf.DefaultEarly)
	strat strategy.Strategy
	st    *store.Store
	rows  int
	lanes int
	bits  int

	ctr strategy.Counters

	// scratch recycles Answer's unmarshaled keys (whose correction-word and
	// final-CW slices are reused across calls), so the steady-state Answer
	// path allocates nothing beyond the returned answer slices.
	scratch sync.Pool
}

// NewReplica builds the engine over the table, adopting it as
// epoch 0 of a fresh store.Store — the caller must not mutate the table
// afterwards; all writes go through UpdateBatch (which installs new
// epochs and leave prior snapshots untouched).
func NewReplica(tab *strategy.Table, cfg Config) (*Replica, error) {
	if tab == nil || tab.NumRows == 0 {
		return nil, fmt.Errorf("engine: replica needs a table")
	}
	st, err := store.New(tab)
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	return NewReplicaOverStore(st, cfg)
}

// NewReplicaOverStore builds the engine over an existing
// epoch-versioned store — the constructor for callers that coordinate the
// store's epochs themselves or share one store between replicas (both
// parties of an in-process test pair, a replica and its admin updater).
func NewReplicaOverStore(st *store.Store, cfg Config) (*Replica, error) {
	if cfg.Party != 0 && cfg.Party != 1 {
		return nil, fmt.Errorf("engine: party must be 0 or 1, got %d", cfg.Party)
	}
	if st == nil {
		return nil, fmt.Errorf("engine: replica needs a store")
	}
	rows, lanes := st.Shape()
	prg := cfg.PRG
	if prg == nil {
		prg = dpf.NewAESPRG()
	}
	bits := dpf.DomainBits(rows)
	strat := cfg.Strategy
	if strat == nil {
		// The tile loop spends the budget: queries, narrow tiles' leaf
		// sub-ranges and the table stream's row blocks fan out across it,
		// and answers are bit-identical whatever it is.
		strat = strategy.MemBoundTree{K: strategy.DefaultK, Workers: runtime.GOMAXPROCS(0)}
	}
	return &Replica{
		party: uint8(cfg.Party),
		prg:   prg,
		early: dpf.DefaultEarly(bits),
		strat: strat,
		st:    st,
		rows:  rows,
		lanes: lanes,
		bits:  bits,
	}, nil
}

// Party returns which share (0 or 1) this replica computes.
func (r *Replica) Party() int { return int(r.party) }

// Store returns the replica's epoch-versioned table store — the seam for
// coordinated updates (engine.Cluster's epoch handshake) and for sharing
// one table between replicas.
func (r *Replica) Store() *store.Store { return r.st }

// Strategy returns the execution strategy the replica runs.
func (r *Replica) Strategy() strategy.Strategy { return r.strat }

// PRGName implements Member: the PRF served keys must use.
func (r *Replica) PRGName() string { return r.prg.Name() }

// PRG is the PRF itself, whose Construction a wire hello states.
func (r *Replica) PRG() dpf.PRG { return r.prg }

// HeldRange implements Member: a replica holds its whole table.
func (r *Replica) HeldRange() (lo, hi int) { return 0, r.rows }

// Shape implements Backend.
func (r *Replica) Shape() (rows, lanes int) { return r.rows, r.lanes }

// Counters implements Backend.
func (r *Replica) Counters() strategy.Stats { return r.ctr.Snapshot() }

// keyErrPrefix tags a key-validation error with the replica's configured
// PRF and the parsed wire version of the offending key — the two facts a
// failing client needs first: the wire format carries no PRF identifier,
// and a key from an older client (v1 or v2) is otherwise
// indistinguishable from corruption.
func (r *Replica) keyErrPrefix(raw []byte) string {
	return fmt.Sprintf("engine (prg=%s, key wire v%d)", r.prg.Name(), dpf.WireVersion(raw))
}

// validatePinnedKey checks an unmarshaled key against a pinned serving
// configuration — the one shared core behind Replica.validateKey and
// Cluster.ValidateKey, so the in-process and distributed front doors can
// never drift apart in what they accept or how they explain a rejection.
// Errors carry no context prefix; callers wrap with theirs on the (cold)
// failure path, keeping the hot path allocation-free.
func validatePinnedKey(k *dpf.Key, party, bits, early int) error {
	if int(k.Party) != party {
		return fmt.Errorf("key is for party %d, this backend serves party %d", k.Party, party)
	}
	if k.Bits != bits {
		return fmt.Errorf("key has %d bits, table needs %d", k.Bits, bits)
	}
	if k.Early != early {
		return fmt.Errorf("key has early-termination depth %d, this backend serves depth %d — generate keys with the matching depth",
			k.Early, early)
	}
	return nil
}

// validateKey checks an unmarshaled key against the replica's party, tree
// depth, and served early-termination depth.
func (r *Replica) validateKey(raw []byte, k *dpf.Key) error {
	if err := validatePinnedKey(k, int(r.party), r.bits, r.early); err != nil {
		return fmt.Errorf("%s: %w", r.keyErrPrefix(raw), err)
	}
	return nil
}

// ValidateKey checks a marshaled key against the replica without
// evaluating it: it must unmarshal, carry this replica's party, be scalar,
// match the table's tree depth and served early-termination depth,
// and be in the served key wire format. Front doors that coalesce many
// clients' keys into one batch (serving.Front) use it to reject a bad key
// at its own request instead of failing every co-batched request — the
// depth check also keeps batches depth-uniform, which the strategies'
// tiled walkers require. Errors name the replica's PRF and the key's
// parsed wire version.
func (r *Replica) ValidateKey(raw []byte) error {
	var k dpf.Key
	if err := k.UnmarshalBinary(raw); err != nil {
		return fmt.Errorf("%s: %w", r.keyErrPrefix(raw), err)
	}
	return r.validateKey(raw, &k)
}

// getAnswerScratch pops a pooled scratch or makes the first one.
func getAnswerScratch(p *sync.Pool) *answerScratch {
	if sc, ok := p.Get().(*answerScratch); ok {
		return sc
	}
	return new(answerScratch)
}

// answerScratch is Answer's pooled per-call state: keys are unmarshaled
// into retained dpf.Key structs (UnmarshalBinary reuses their CW/Final
// capacity).
type answerScratch struct {
	keys    []dpf.Key
	keyPtrs []*dpf.Key
}

// grow sizes the scratch for a batch, preserving the retained keys'
// internal slices.
func (s *answerScratch) grow(batch int) {
	if cap(s.keys) < batch {
		keys := make([]dpf.Key, batch)
		copy(keys, s.keys)
		s.keys = keys
	}
	s.keys = s.keys[:batch]
	if cap(s.keyPtrs) < batch {
		s.keyPtrs = make([]*dpf.Key, batch)
	}
	s.keyPtrs = s.keyPtrs[:batch]
	for i := range s.keyPtrs {
		s.keyPtrs[i] = &s.keys[i]
	}
}

// Answer implements Backend: keys are unmarshaled and validated once into
// pooled key structs, then the strategy's allocation-free RunRangeInto
// evaluates the whole batch over the whole table straight into the
// returned answers. Steady state, the only allocations are the returned
// answer slices themselves. The whole batch runs against ONE pinned table
// snapshot: a concurrent update neither blocks it nor tears it.
func (r *Replica) Answer(ctx context.Context, rawKeys [][]byte) ([][]uint32, error) {
	answers, _, err := r.answerRange(ctx, rawKeys, 0, r.rows)
	return answers, err
}

// AnswerRangeEpoch implements Member: Answer over rows [lo, hi) only,
// yielding the partial shares a Cluster merges and the epoch of the
// snapshot they were computed against.
func (r *Replica) AnswerRangeEpoch(ctx context.Context, rawKeys [][]byte, lo, hi int) ([][]uint32, uint64, bool, error) {
	if lo < 0 || hi > r.rows || lo >= hi {
		return nil, 0, false, fmt.Errorf("engine: row range [%d,%d) invalid for table of %d rows", lo, hi, r.rows)
	}
	answers, epoch, err := r.answerRange(ctx, rawKeys, lo, hi)
	return answers, epoch, err == nil, err
}

// answerRange is the shared Answer/AnswerRangeEpoch core. The returned
// epoch is the pinned snapshot's.
func (r *Replica) answerRange(ctx context.Context, rawKeys [][]byte, lo, hi int) ([][]uint32, uint64, error) {
	if len(rawKeys) == 0 {
		return nil, 0, fmt.Errorf("engine: empty key batch")
	}
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	sc := getAnswerScratch(&r.scratch)
	defer r.scratch.Put(sc)
	sc.grow(len(rawKeys))
	keys := sc.keyPtrs
	for i, raw := range rawKeys {
		if err := keys[i].UnmarshalBinary(raw); err != nil {
			return nil, 0, fmt.Errorf("%s: key %d: %w", r.keyErrPrefix(raw), i, err)
		}
		if err := r.validateKey(raw, keys[i]); err != nil {
			return nil, 0, fmt.Errorf("key %d: %w", i, err)
		}
	}
	answers := strategy.NewAnswers(len(rawKeys), r.lanes)

	// Pin one table epoch for the whole batch: a concurrent update neither
	// blocks behind the batch nor changes rows under it.
	snap := r.st.Acquire()
	defer snap.Release()
	if err := r.strat.RunRangeInto(r.prg, keys, snap, lo, hi, &r.ctr, answers); err != nil {
		return nil, 0, fmt.Errorf("engine: evaluating batch: %w", err)
	}
	return answers, snap.Epoch(), nil
}
