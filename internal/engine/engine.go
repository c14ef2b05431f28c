// Package engine unifies the server-side request path behind one seam
// (capability.go): the Backend interface every consumer (pir.Server,
// batchpir.Server, core.Service, serving.Front, cmd/pirserver) routes
// answers and updates through, the Member interface a Cluster or a shard
// node holds, and a sharded Replica implementation that partitions the
// table into contiguous row ranges and fans each key batch across a
// bounded worker pool. Shares are additive (mod 2^32, lane-wise), so per-shard partial
// sums merge into exactly the answers a sequential evaluation produces —
// the same linearity the paper's multi-GPU scheme exploits (§3.2.7), here
// applied inside one replica so the hot path is parallel end to end.
package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"gpudpf/internal/dpf"
	"gpudpf/internal/gpu"
	"gpudpf/internal/store"
	"gpudpf/internal/strategy"
)

// Config assembles a Replica.
type Config struct {
	// Party is which share (0 or 1) the replica computes.
	Party int
	// Shards partitions the table into this many contiguous row ranges;
	// 0 or 1 is the unsharded, sequential-equivalent configuration.
	// Shards beyond the row count are clamped.
	Shards int
	// Workers bounds the shard worker pool (0 = GOMAXPROCS).
	Workers int
	// PRG is the PRF shared with clients (nil = aes128). Every PRF of the
	// Table 5 sweep (aes128, sha256, chacha20, siphash, highway) is
	// servable — cmd/pirserver wires this through its -prg flag, so the
	// sweep is reachable from the TCP serving path. Key validation errors
	// name the replica's PRF: the wire format carries no PRF identifier,
	// so a client on the wrong PRF otherwise fails silently with garbage
	// shares.
	PRG dpf.PRG
	// EarlyBits is the early-termination depth (§3.1) served keys must
	// carry, shared with clients like the PRF. 0 means the dpf default for
	// the table's tree depth (DefaultEarlyBits, clamped — what
	// pir.NewClient emits); FullDepthKeys serves legacy full-depth wire-v1
	// keys. The strategies' tiled walkers need depth-uniform batches, so
	// the replica pins one depth and rejects mismatched keys loudly at
	// validation instead of failing co-batched requests downstream.
	EarlyBits int
	// Strategy overrides the execution strategy (nil = the paper's
	// scheduler for the table's size).
	Strategy strategy.Strategy
}

// FullDepthKeys configures a replica (Config.EarlyBits) to serve legacy
// full-depth wire-v1 keys.
const FullDepthKeys = -1

// Replica is the sharded Backend over one party's table replica. The
// table lives in an epoch-versioned store.Store: every Answer pins one
// immutable snapshot for the whole batch, and updates install new epochs
// without blocking readers — UpdateBatch/Answer share no lock at all.
type Replica struct {
	party   uint8
	prg     dpf.PRG
	early   int // early-termination depth served keys must carry
	strat   strategy.Strategy
	st      *store.Store
	rows    int
	lanes   int
	bits    int
	bounds  []int // shard i covers rows [bounds[i], bounds[i+1])
	workers int

	ctr gpu.Counters

	// scratch recycles Answer's per-call state — unmarshaled keys (whose
	// correction-word and final-CW slices are reused across calls) and
	// per-shard partial-share buffers — so the steady-state Answer path
	// allocates nothing beyond the returned answer slices.
	scratch sync.Pool
}

// NewReplica builds the sharded engine over the table, adopting it as
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

// NewReplicaOverStore builds the sharded engine over an existing
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
	if cfg.Shards < 0 || cfg.Workers < 0 {
		return nil, fmt.Errorf("engine: negative Shards/Workers (%d/%d)", cfg.Shards, cfg.Workers)
	}
	rows, lanes := st.Shape()
	shards := cfg.Shards
	if shards < 1 {
		shards = 1
	}
	if shards > rows {
		shards = rows
	}
	workers := cfg.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	prg := cfg.PRG
	if prg == nil {
		prg = dpf.NewAESPRG()
	}
	bits := dpf.DomainBits(rows)
	early := cfg.EarlyBits
	switch {
	case early == 0:
		early = dpf.DefaultEarly(bits, 1)
	case early == FullDepthKeys:
		early = 0
	case early < 0 || early > dpf.MaxEarlyBits:
		return nil, fmt.Errorf("engine: EarlyBits %d out of range [%d,%d]", cfg.EarlyBits, FullDepthKeys, dpf.MaxEarlyBits)
	default:
		// Clamp like the client side so matching flags stay matched on
		// tiny tables.
		early = dpf.ClampEarly(early, bits)
	}
	strat := cfg.Strategy
	if strat == nil {
		// Schedule for the shard width, not the whole table: a shard only
		// walks its own range, so a 2^24 table split 8 ways wants the
		// strategy for 2^21-row tables. Scheduling on table bits would
		// hand large sharded tables CoopGroups, whose breadth-first
		// expansion cannot prune to a range and would multiply total work
		// by the shard count.
		shardRows := (rows + shards - 1) / shards
		strat = strategy.Schedule(dpf.DomainBits(shardRows))
	}
	// Surplus worker budget flows down into the strategy layer: the shard
	// fan-out can use at most `shards` workers, so when shards < workers the
	// leftover per-shard budget fans each shard's table stream across row
	// blocks instead (a 1-shard replica finally scales with cores). Answers
	// are bit-identical either way, and the counters still pin to the
	// analytic Model — the same work is accounted once however it fans out.
	if per := workers / shards; per > 1 {
		strat = strategy.WithWorkers(strat, per)
	}
	bounds := make([]int, shards+1)
	for i := 0; i < shards; i++ {
		bounds[i], bounds[i+1] = ShardRange(rows, i, shards)
	}
	return &Replica{
		party:   uint8(cfg.Party),
		prg:     prg,
		early:   early,
		strat:   strat,
		st:      st,
		rows:    rows,
		lanes:   lanes,
		bits:    bits,
		bounds:  bounds,
		workers: workers,
	}, nil
}

// Party returns which share (0 or 1) this replica computes.
func (r *Replica) Party() int { return int(r.party) }

// Table materializes a copy of the current epoch's table. A snapshot's
// own buffers are only guaranteed stable while pinned (superseded backings
// are recycled into later epochs' copies), and this method cannot hand the
// pin to the caller — so it copies, assembling from the snapshot's chunk
// iterator (which works for delta-epoch overlays and paged backings alike;
// a paged backing can surface a read error). It is a debugging/reporting
// accessor, not a hot path; code that needs zero-copy reads pins a
// snapshot via Store().Acquire and releases it when done.
func (r *Replica) Table() (*strategy.Table, error) {
	snap := r.st.Acquire()
	defer snap.Release()
	return strategy.TableFromView(snap)
}

// Store returns the replica's epoch-versioned table store — the seam for
// coordinated updates (engine.Cluster's epoch handshake) and for sharing
// one table between replicas.
func (r *Replica) Store() *store.Store { return r.st }

// Shards returns the shard count.
func (r *Replica) Shards() int { return len(r.bounds) - 1 }

// Strategy returns the execution strategy shards run.
func (r *Replica) Strategy() strategy.Strategy { return r.strat }

// EarlyBits returns the early-termination depth served keys must carry
// (0 = legacy full-depth wire-v1 keys).
func (r *Replica) EarlyBits() int { return r.early }

// PRGName implements Member: the PRF served keys must use.
func (r *Replica) PRGName() string { return r.prg.Name() }

// HeldRange implements Member: a replica holds its whole table.
func (r *Replica) HeldRange() (lo, hi int) { return 0, r.rows }

// Shape implements Backend.
func (r *Replica) Shape() (rows, lanes int) { return r.rows, r.lanes }

// Counters implements Backend.
func (r *Replica) Counters() gpu.Stats { return r.ctr.Snapshot() }

// keyErrPrefix tags a key-validation error with the replica's configured
// PRF and the parsed wire version of the offending key — the two facts a
// failing client needs first: the wire format carries no PRF identifier,
// and a v1/v2 mismatch (a legacy client against an early-termination
// replica, or vice versa) is otherwise indistinguishable from corruption.
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
	if k.Lanes != 1 {
		return fmt.Errorf("key has %d lanes; PIR keys are scalar", k.Lanes)
	}
	if k.Bits != bits {
		return fmt.Errorf("key has %d bits, table needs %d", k.Bits, bits)
	}
	if k.Early != early {
		return fmt.Errorf("key has early-termination depth %d, this backend serves depth %d — generate keys with the matching -early (0 needs wire v1, 1+ wire v2)",
			k.Early, early)
	}
	return nil
}

// validateKey checks an unmarshaled key against the replica's party, lane
// shape, tree depth, and configured early-termination depth.
func (r *Replica) validateKey(raw []byte, k *dpf.Key) error {
	if err := validatePinnedKey(k, int(r.party), r.bits, r.early); err != nil {
		return fmt.Errorf("%s: %w", r.keyErrPrefix(raw), err)
	}
	return nil
}

// ValidateKey checks a marshaled key against the replica without
// evaluating it: it must unmarshal, carry this replica's party, be scalar,
// and match the table's tree depth and the replica's early-termination
// depth. Front doors that coalesce many clients' keys into one batch
// (serving.Batcher) use it to reject a bad key at its own request instead
// of failing every co-batched request — the depth check also keeps batches
// depth-uniform, which the strategies' tiled walkers require. Errors name
// the replica's PRF and the key's parsed wire version.
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

// answerScratch is Answer's pooled per-call state. Keys are unmarshaled
// into retained dpf.Key structs (UnmarshalBinary reuses their CW/Final
// capacity), and shard partials live in one flat backing that is cleared,
// not reallocated, per call.
type answerScratch struct {
	keys     []dpf.Key
	keyPtrs  []*dpf.Key
	flat     []uint32
	hdr      [][]uint32
	partials [][][]uint32
	errs     []error
}

// grow sizes the scratch for a batch × shards call, preserving the
// retained keys' internal slices.
func (s *answerScratch) grow(batch, shards, lanes int) {
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
	if shards == 0 {
		return
	}
	need := shards * batch * lanes
	if cap(s.flat) < need {
		s.flat = make([]uint32, need)
	}
	s.flat = s.flat[:need]
	clear(s.flat) // strategies accumulate into zeroed partials
	if cap(s.hdr) < shards*batch {
		s.hdr = make([][]uint32, shards*batch)
	}
	s.hdr = s.hdr[:shards*batch]
	if cap(s.partials) < shards {
		s.partials = make([][][]uint32, shards)
	}
	s.partials = s.partials[:shards]
	if cap(s.errs) < shards {
		s.errs = make([]error, shards)
	}
	s.errs = s.errs[:shards]
	for i := range s.errs {
		s.errs[i] = nil
	}
	for sh := 0; sh < shards; sh++ {
		rows := s.hdr[sh*batch : (sh+1)*batch]
		for q := 0; q < batch; q++ {
			off := (sh*batch + q) * lanes
			rows[q] = s.flat[off : off+lanes]
		}
		s.partials[sh] = rows
	}
}

// Answer implements Backend: keys are unmarshaled and validated once into
// pooled key structs, then every shard evaluates the whole batch over its
// row range on the bounded worker pool via the strategy's allocation-free
// RunRangeInto, and the per-shard partial shares are merged in place into
// the returned answers. Steady state, the only allocations are the
// returned answer slices themselves. The whole batch runs against ONE
// pinned table snapshot: a concurrent update neither blocks it nor tears
// it.
func (r *Replica) Answer(ctx context.Context, rawKeys [][]byte) ([][]uint32, error) {
	answers, _, err := r.answerBounds(ctx, rawKeys, r.bounds)
	return answers, err
}

// AnswerRangeEpoch implements Member: the batch is evaluated against rows
// [lo, hi) only, the range split across the replica's shard/worker budget
// exactly like Answer splits the full table, yielding the partial shares a
// Cluster merges and the epoch of the snapshot they were computed against.
// Unlike Answer's steady state, the per-call shard bounds are freshly
// allocated — this is the network-facing path, not the in-process hot path.
func (r *Replica) AnswerRangeEpoch(ctx context.Context, rawKeys [][]byte, lo, hi int) ([][]uint32, uint64, bool, error) {
	if lo < 0 || hi > r.rows || lo >= hi {
		return nil, 0, false, fmt.Errorf("engine: row range [%d,%d) invalid for table of %d rows", lo, hi, r.rows)
	}
	shards := r.Shards()
	if shards > hi-lo {
		shards = hi - lo
	}
	bounds := make([]int, shards+1)
	for i := range bounds {
		bounds[i] = lo + i*(hi-lo)/shards
	}
	answers, epoch, err := r.answerBounds(ctx, rawKeys, bounds)
	return answers, epoch, err == nil, err
}

// answerBounds is the shared Answer/AnswerRangeEpoch core: shard i of the call
// covers rows [bounds[i], bounds[i+1]). The returned epoch is the pinned
// snapshot's.
func (r *Replica) answerBounds(ctx context.Context, rawKeys [][]byte, bounds []int) ([][]uint32, uint64, error) {
	if len(rawKeys) == 0 {
		return nil, 0, fmt.Errorf("engine: empty key batch")
	}
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	// sc is initialized exactly once and never reassigned: the shard
	// workers' closure captures it, and capturing a reassigned variable
	// would heap-move it on every call.
	sc := getAnswerScratch(&r.scratch)
	shards := len(bounds) - 1
	partialShards := shards
	if shards == 1 {
		partialShards = 0 // sequential path accumulates straight into answers
	}
	sc.grow(len(rawKeys), partialShards, r.lanes)
	keys := sc.keyPtrs
	for i, raw := range rawKeys {
		if err := keys[i].UnmarshalBinary(raw); err != nil {
			r.scratch.Put(sc)
			return nil, 0, fmt.Errorf("%s: key %d: %w", r.keyErrPrefix(raw), i, err)
		}
		if err := r.validateKey(raw, keys[i]); err != nil {
			r.scratch.Put(sc)
			return nil, 0, fmt.Errorf("key %d: %w", i, err)
		}
	}
	answers := strategy.NewAnswers(len(rawKeys), r.lanes)

	// Pin one table epoch for the whole batch: every shard of this call
	// streams the same immutable snapshot, and a concurrent update
	// neither blocks behind the batch nor changes rows under it.
	snap := r.st.Acquire()
	defer snap.Release()
	epoch := snap.Epoch()
	if shards == 1 {
		err := r.strat.RunRangeInto(r.prg, keys, snap, bounds[0], bounds[1], &r.ctr, answers)
		r.scratch.Put(sc)
		if err != nil {
			return nil, 0, fmt.Errorf("engine: evaluating batch: %w", err)
		}
		return answers, epoch, nil
	}

	workers := r.workers
	if workers > shards {
		workers = shards
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= shards {
					return
				}
				if err := ctx.Err(); err != nil {
					sc.errs[i] = err
					continue
				}
				sc.errs[i] = r.strat.RunRangeInto(r.prg, keys, snap, bounds[i], bounds[i+1], &r.ctr, sc.partials[i])
			}
		}()
	}
	wg.Wait()
	for i, err := range sc.errs {
		if err != nil {
			r.scratch.Put(sc)
			return nil, 0, fmt.Errorf("engine: shard %d [%d,%d): %w", i, bounds[i], bounds[i+1], err)
		}
	}

	// Merge the shard partials in place into the answers.
	for s := 0; s < shards; s++ {
		for q := range answers {
			part := sc.partials[s][q]
			for l := range answers[q] {
				answers[q][l] += part[l]
			}
		}
	}
	r.scratch.Put(sc)
	return answers, epoch, nil
}
