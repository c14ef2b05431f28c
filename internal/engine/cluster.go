package engine

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gpudpf/internal/backoff"
	"gpudpf/internal/dpf"
	"gpudpf/internal/strategy"
)

// ShardRange returns the row range [lo, hi) that shard i of n serves in
// an evenly split domain of rows entries. Every layer that derives the
// split — Replica's in-process shard bounds, Cluster's assignment, and a
// shard node started with `pirserver -shardnode i/n` — must compute it
// through this one function: a node whose held slice diverges from the
// front's assignment is only caught at startup by the HeldRange check,
// and two layers quietly disagreeing on the rounding is exactly the kind
// of drift that turns into garbage shares.
func ShardRange(rows, i, n int) (lo, hi int) {
	return i * rows / n, (i + 1) * rows / n
}

// ClusterShard is one replica group of a Cluster: N members that all hold
// the same row range (in-process Replicas, or shardnet.Clients speaking to
// nodes in other processes or on other machines) plus names for errors —
// when a member dies mid-batch the operator needs to know WHICH machine.
// Answer batches load-balance across the group's healthy members and a
// member that fails mid-batch is retried transparently on the next,
// provided the survivor's answer merges at the same table epoch as the
// other shards' (a stale member is refused, never silently blended in).
//
// Backend + Name is the one-member shorthand: Backend is member 0 and
// Members (if any) follow. At least one of Backend and Members must be
// set. Every member serves load-balanced traffic and participates in
// cluster updates (the epoch handshake prepares and commits on every
// member), so a failover never serves stale rows undetected.
type ClusterShard struct {
	Backend Member
	// Name identifies Backend in errors (typically its address for
	// remote shards); empty defaults to "shard i".
	Name string
	// Members are replica-group members beyond Backend (or the whole
	// group, when Backend is nil). All entries must be non-nil.
	Members []Member
	// MemberNames name Members entrywise in errors; missing or empty
	// entries default to "shard i member j".
	MemberNames []string
}

// ShardError is the named error a Cluster returns when one shard's
// sub-range evaluation fails: it identifies the shard by index, name and
// assigned row range, and wraps the underlying cause (so errors.Is sees
// context.DeadlineExceeded through it when a slow shard blows the
// caller's deadline, and connection errors when a shard node dies). When
// a whole replica group is down the cause enumerates every member's name
// and failure, so the operator can tell which member to heal.
type ShardError struct {
	// Shard is the failing shard's index in the cluster.
	Shard int
	// Name is the shard's configured name (the first group member's, or
	// the specific member's for member-scoped failures such as a refused
	// prepare).
	Name string
	// Lo, Hi is the row range the shard was asked to evaluate.
	Lo, Hi int
	// Err is the underlying failure.
	Err error
}

func (e *ShardError) Error() string {
	return fmt.Sprintf("engine: cluster shard %d (%s) rows [%d,%d): %v", e.Shard, e.Name, e.Lo, e.Hi, e.Err)
}

func (e *ShardError) Unwrap() error { return e.Err }

// groupFailure is the cause inside a ShardError when a whole replica
// group failed one batch: one entry per member, in group order, each
// naming the member and its failure (or why it was not tried). Unwrap
// exposes every underlying error, so errors.Is still sees the first
// member's cause — and everyone else's.
type groupFailure struct {
	parts  []string
	causes []error
}

func (g *groupFailure) Error() string   { return strings.Join(g.parts, "; ") }
func (g *groupFailure) Unwrap() []error { return g.causes }

// ErrMixedEpoch is wrapped by the error a Cluster returns when shards
// answered one batch at different table epochs — an update handshake
// committed mid-fan-out, or a member holds a stale table. The Answer path
// retries a bounded number of times first (the commit wave is milliseconds
// wide); a persistent mismatch means the cluster's replicas genuinely
// diverged and must fail loudly.
var ErrMixedEpoch = errors.New("engine: cluster shards answered at different table epochs")

// answerEpochRetries bounds how many times Answer re-fans a batch whose
// partials straddled an update commit.
const answerEpochRetries = 3

// abortTimeout bounds the rollback fan-out after a failed cluster update;
// it runs on a fresh context because the caller's may already be dead —
// dying with an epoch half-installed is the one thing the handshake must
// never do silently.
const abortTimeout = 30 * time.Second

// tripFailures is how many consecutive failures trip a member's breaker:
// the member leaves rotation for a backoff cooldown, then is probed
// (Ping) before re-entry, so a flapping node does not eat every batch's
// first attempt.
const tripFailures = 3

// probeTimeout bounds the health probe against a cooled-down member.
const probeTimeout = 2 * time.Second

// healAttempts bounds Heal's catch-up rounds against a donor whose epoch
// keeps advancing under update churn before the final locked round.
const healAttempts = 5

// catchUpChunkWords is the word granularity CatchUp fetches snapshots at.
const catchUpChunkWords = 256 << 10

// memberHealth is one group member's failure-tracking state. Answer
// goroutines and the update path share it; the mutex guards everything
// but the in-flight counter (read lock-free by the balancer).
type memberHealth struct {
	inflight atomic.Int64

	mu      sync.Mutex
	fails   int
	tripped bool
	retryAt time.Time
	bo      *backoff.Backoff
	stale   bool
	lastErr error
}

// pickClass buckets the member for selection: 0 = healthy, 1 = tripped
// but cooldown expired (probe before use), 2 = tripped and cooling (last
// resort only). ok is false for quarantined members, which never serve.
func (h *memberHealth) pickClass(now time.Time) (class int, ok bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	switch {
	case h.stale:
		return 0, false
	case !h.tripped:
		return 0, true
	case !now.Before(h.retryAt):
		return 1, true
	default:
		return 2, true
	}
}

func (h *memberHealth) onSuccess() {
	h.mu.Lock()
	h.fails = 0
	h.tripped = false
	h.lastErr = nil
	h.bo.Reset()
	h.mu.Unlock()
}

func (h *memberHealth) onFailure(err error, now time.Time) {
	h.mu.Lock()
	h.lastErr = err
	h.fails++
	if h.tripped || h.fails >= tripFailures {
		h.tripped = true
		h.retryAt = now.Add(h.bo.Next())
	}
	h.mu.Unlock()
}

// quarantine marks the member stale: it missed one or more cluster
// epochs and must be healed (snapshot transfer) before serving again —
// the epoch merge check would refuse its answers anyway; quarantine just
// stops paying for the doomed attempt.
func (h *memberHealth) quarantine(err error) {
	h.mu.Lock()
	h.stale = true
	h.lastErr = err
	h.mu.Unlock()
}

// recover returns the member to full health: Heal calls it once the
// member has adopted the cluster's current epoch.
func (h *memberHealth) recover() {
	h.mu.Lock()
	h.stale = false
	h.tripped = false
	h.fails = 0
	h.lastErr = nil
	h.bo.Reset()
	h.mu.Unlock()
}

func (h *memberHealth) isStale() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.stale
}

// status reports the member's breaker, quarantine and last failure.
func (h *memberHealth) status() (tripped, stale bool, lastErr error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.tripped, h.stale, h.lastErr
}

// shardGroup is one shard's replica group: the members, their health, and
// the rotation counter the balancer ties on.
type shardGroup struct {
	members []Member
	names   []string
	health  []*memberHealth
	rr      atomic.Uint64
}

// pick chooses the next member to try: the lowest pick class wins, ties
// broken by in-flight load, remaining ties by a rotating start index (so
// sequential traffic round-robins and concurrent traffic spreads by
// load). Returns -1 when every member is tried or quarantined; probe is
// true when the choice is a tripped member that must be probed first.
func (g *shardGroup) pick(tried []bool, now time.Time) (idx int, probe bool) {
	n := len(g.members)
	start := int(g.rr.Add(1)-1) % n
	best, bestClass := -1, 0
	var bestIn int64
	for j := 0; j < n; j++ {
		i := (start + j) % n
		if tried[i] {
			continue
		}
		class, ok := g.health[i].pickClass(now)
		if !ok {
			continue
		}
		in := g.health[i].inflight.Load()
		if best < 0 || class < bestClass || (class == bestClass && in < bestIn) {
			best, bestClass, bestIn = i, class, in
		}
	}
	return best, best >= 0 && bestClass >= 1
}

// Cluster is a Backend that splits the row domain across N shard replica
// groups so one logical replica can span processes and machines: a key
// batch fans out concurrently as AnswerRangeEpoch calls over contiguous row
// ranges — each shard's batch served by one load-balanced group member —
// and the per-shard partial sums merge lane-wise mod 2^32, by the
// linearity of the shares bit-identical to a single-process Replica over
// the same table. Construction fails loudly on any configuration the
// merge would silently corrupt: disagreeing table shapes, PRFs or
// parties across any members, or a member assigned rows it does not hold.
// The served early-termination depth follows from the shared row count.
//
// Epochs make the merge safe under change: every partial names the table
// epoch it was computed at, so a batch that straddled an update is
// detected and retried instead of merged, and UpdateBatch drives the
// prepare/commit epoch handshake so a multi-row update lands on every
// reachable member or on none. A member that missed epochs — it was
// unreachable during an update, or reports an older epoch — is
// quarantined: excluded from rotation and from later handshakes until
// Heal brings it to the current epoch via snapshot transfer.
type Cluster struct {
	groups []*shardGroup
	// bounds[i] .. bounds[i+1] is shard i's row range, the same even
	// split Replica uses for its in-process shards.
	bounds []int
	rows   int
	lanes  int
	// memberAt[i] is shard i's first member in a fan-out's per-member
	// state; memberAt[len(groups)] is the member count.
	memberAt []int

	// chained: every member is a Pipeliner, so a pass sends its shard
	// requests from the calling goroutine, each from the last one's send
	// hook.
	chained bool
	fanouts sync.Pool // *fanout
	keys    sync.Pool // *dpf.Key, for ValidateKey

	// umu serializes cluster-driven updates and Heal's final join: one
	// epoch handshake in flight at a time. Concurrent Answers are NOT
	// blocked — they pin snapshots on the shards and the epoch check
	// guards the merge — except a batch's last re-fan, which holds umu
	// shared so no commit wave can straddle it.
	umu sync.RWMutex

	// The configuration every member pins (NewCluster refuses a set that
	// disagrees) and the depth its rows give; ValidateKey uses them to
	// reject bad keys at the front door.
	prgName string
	early   int
	party   int

	// epochRetries counts mixed-epoch detections on the answer path —
	// every time a batch's partials straddled an update commit (or hit a
	// not-yet-quarantined stale member) and the batch was re-fanned. The
	// serving front door reports it so a load harness can price what
	// epoch churn costs under real traffic.
	epochRetries atomic.Uint64
}

// EpochRetries returns how many answer batches were re-fanned because
// their partial shares straddled an update commit (ErrMixedEpoch on the
// merge). A steadily climbing counter under update churn is expected; the
// cost is one extra fan-out per count, never a wrong answer.
func (c *Cluster) EpochRetries() uint64 { return c.epochRetries.Load() }

// clusterMember is one backend of the cluster with its naming, position
// and health handle.
type clusterMember struct {
	be     Member
	name   string
	shard  int // index of the shard whose range this member serves
	member int // index within the shard's replica group
	h      *memberHealth
}

// members lists every backend in shard order, group members in order.
func (c *Cluster) members() []clusterMember {
	ms := make([]clusterMember, 0, len(c.groups)*2)
	for i, g := range c.groups {
		for j := range g.members {
			ms = append(ms, clusterMember{be: g.members[j], name: g.names[j], shard: i, member: j, h: g.health[j]})
		}
	}
	return ms
}

// activeMembers is members() minus the quarantined: the set answers serve
// from and epoch handshakes run over.
func (c *Cluster) activeMembers() []clusterMember {
	ms := c.members()
	out := ms[:0]
	for _, m := range ms {
		if !m.h.isStale() {
			out = append(out, m)
		}
	}
	return out
}

// NewCluster assembles a cluster over the given shards; shard i serves
// rows [i·rows/N, (i+1)·rows/N) of the common table domain.
func NewCluster(shards ...ClusterShard) (*Cluster, error) {
	if len(shards) == 0 {
		return nil, errors.New("engine: cluster needs at least one shard")
	}
	c := &Cluster{groups: make([]*shardGroup, len(shards))}
	for i, sh := range shards {
		g := &shardGroup{}
		add := func(be Member, name, defName string) {
			if name == "" {
				name = defName
			}
			g.members = append(g.members, be)
			g.names = append(g.names, name)
		}
		if sh.Backend != nil {
			add(sh.Backend, sh.Name, fmt.Sprintf("shard %d", i))
		}
		for j, be := range sh.Members {
			if be == nil {
				return nil, fmt.Errorf("engine: cluster shard %d member %d is nil", i, j)
			}
			name := ""
			if j < len(sh.MemberNames) {
				name = sh.MemberNames[j]
			}
			add(be, name, fmt.Sprintf("shard %d member %d", i, j))
		}
		if len(g.members) == 0 {
			return nil, fmt.Errorf("engine: cluster shard %d has no backend", i)
		}
		g.health = make([]*memberHealth, len(g.members))
		for j := range g.health {
			// Deterministic per-position seeds: reproducible cooldown
			// schedules in tests, decorrelated across members.
			seed := uint64(i)*0x9e3779b97f4a7c15 + uint64(j) + 1
			g.health[j] = &memberHealth{bo: backoff.New(backoff.Default(), seed)}
		}
		c.groups[i] = g
	}
	c.rows, c.lanes = c.groups[0].members[0].Shape()
	if c.rows <= 0 || c.lanes <= 0 {
		return nil, fmt.Errorf("engine: cluster shard 0 (%s) reports an invalid %d×%d table", c.groups[0].names[0], c.rows, c.lanes)
	}
	members := c.members()
	for _, m := range members {
		rows, lanes := m.be.Shape()
		if rows != c.rows || lanes != c.lanes {
			return nil, fmt.Errorf("engine: cluster member %s serves a %d×%d table, shard 0 (%s) a %d×%d one — all members must replicate the same domain",
				m.name, rows, lanes, c.groups[0].names[0], c.rows, c.lanes)
		}
	}
	if len(c.groups) > c.rows {
		return nil, fmt.Errorf("engine: cluster of %d shards over a table of only %d rows", len(c.groups), c.rows)
	}
	c.chained = len(c.groups) > 1
	for _, m := range members {
		p, ok := m.be.(Pipeliner)
		c.chained = c.chained && ok && p.Pipelined()
	}
	c.bounds = make([]int, len(c.groups)+1)
	c.memberAt = make([]int, len(c.groups)+1)
	for i, g := range c.groups {
		c.bounds[i], c.bounds[i+1] = ShardRange(c.rows, i, len(c.groups))
		c.memberAt[i+1] = c.memberAt[i] + len(g.members)
	}
	// Every pinned fact must agree pairwise before partial shares may be
	// merged; name both values and both members in the rejection.
	firstName := members[0].name
	c.prgName, c.party = members[0].be.PRGName(), members[0].be.Party()
	c.early = dpf.DefaultEarly(dpf.DomainBits(c.rows))
	for _, m := range members[1:] {
		if got := m.be.PRGName(); got != c.prgName {
			return nil, fmt.Errorf("engine: cluster member %s serves prg=%s, %s prg=%s — members must share one PRF",
				m.name, got, firstName, c.prgName)
		}
		if got := m.be.Party(); got != c.party {
			return nil, fmt.Errorf("engine: cluster member %s computes party %d shares, %s party %d — a cluster is one party",
				m.name, got, firstName, c.party)
		}
	}
	for _, m := range members {
		lo, hi := m.be.HeldRange()
		if lo < 0 || hi > c.rows || lo >= hi {
			return nil, fmt.Errorf("engine: cluster member %s claims to hold an invalid row range [%d,%d) of %d rows", m.name, lo, hi, c.rows)
		}
		if c.bounds[m.shard] < lo || c.bounds[m.shard+1] > hi {
			return nil, fmt.Errorf("engine: cluster member %s is assigned rows [%d,%d) but holds only [%d,%d) — start the node with the matching shard index/count",
				m.name, c.bounds[m.shard], c.bounds[m.shard+1], lo, hi)
		}
	}
	return c, nil
}

// Shape implements Backend.
func (c *Cluster) Shape() (rows, lanes int) { return c.rows, c.lanes }

// Counters implements Backend: the sum over every group member (all
// members serve load-balanced traffic, and PRF blocks and streamed bytes
// are additive across the split).
func (c *Cluster) Counters() strategy.Stats {
	var total strategy.Stats
	for _, m := range c.members() {
		s := m.be.Counters()
		total.PRFBlocks += s.PRFBlocks
		total.ReadBytes += s.ReadBytes
	}
	return total
}

// shardAnswer is one shard's successful contribution to a batch.
type shardAnswer struct {
	part  [][]uint32
	epoch uint64
	// name is the member that actually produced the partial, for
	// epoch-mismatch errors.
	name string
}

// Answer implements Backend: the batch fans out to every shard's row range
// concurrently, each shard's sub-batch served by one load-balanced member
// of its replica group, and the partial shares merge lane-wise mod 2^32.
// A member that fails mid-batch is retried transparently on the next
// healthy member (each member tried at most once per pass); only when the
// whole group is down does the fan-out cancel and the answer come back as
// a *ShardError naming the shard with every member's failure enumerated —
// a failure induced by the caller's own ctx keeps the ctx error in the
// chain (errors.Is sees DeadlineExceeded). Partials are merged only when
// every shard reports the SAME table epoch; a batch that straddles an
// update commit is re-fanned (bounded retries, the last with commit waves
// held off), so a mixed-epoch answer can never be returned.
func (c *Cluster) Answer(ctx context.Context, keys [][]byte) ([][]uint32, error) {
	if len(keys) == 0 {
		return nil, errors.New("engine: empty key batch")
	}
	var lastErr error
	for attempt := 0; attempt <= answerEpochRetries; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		answers, err := c.answerOnceAt(ctx, keys, attempt == answerEpochRetries)
		if err == nil {
			return answers, nil
		}
		if !errors.Is(err, ErrMixedEpoch) {
			return nil, err
		}
		// An update handshake was committing while the batch fanned out
		// (or a stale member answered before its quarantine landed); the
		// next pass rotates members and lands after the wave.
		c.epochRetries.Add(1)
		lastErr = err
	}
	return nil, lastErr
}

// answerOnceAt is one fan-out pass. The last pass (last) holds off this
// cluster's commit waves, so a batch that straddled a commit on every
// earlier pass — answers slower than the update interval — is served
// rather than failed; only replicas that genuinely diverged can still mix
// epochs there.
func (c *Cluster) answerOnceAt(ctx context.Context, keys [][]byte, last bool) ([][]uint32, error) {
	if last {
		c.umu.RLock()
		defer c.umu.RUnlock()
	}
	return c.answerOnce(ctx, keys)
}

// groupAnswer serves one shard's sub-batch off its replica group: members
// are tried in balancer order, each at most once, failures recorded
// against their health (unless the caller's ctx already died — a
// sibling-induced cancellation must not poison health state). A tripped
// member whose cooldown expired is probed (Ping) before being trusted
// with the batch. tried and memberErrs are the pass's zeroed per-member
// state for this group.
func (c *Cluster) groupAnswer(ctx context.Context, shard int, keys [][]byte, tried []bool, memberErrs []error) (shardAnswer, error) {
	g := c.groups[shard]
	lo, hi := c.bounds[shard], c.bounds[shard+1]
	for {
		if err := ctx.Err(); err != nil {
			if first := firstErr(memberErrs); first != nil {
				break // report the members we did try, not the bare cancel
			}
			return shardAnswer{}, err
		}
		idx, probe := g.pick(tried, time.Now())
		if idx < 0 {
			break
		}
		h := g.health[idx]
		if probe {
			pctx, pcancel := context.WithTimeout(ctx, probeTimeout)
			perr := g.members[idx].Ping(pctx)
			pcancel()
			if perr != nil {
				tried[idx] = true
				memberErrs[idx] = fmt.Errorf("health probe failed: %w", perr)
				if ctx.Err() == nil {
					h.onFailure(perr, time.Now())
				}
				continue
			}
		}
		tried[idx] = true
		h.inflight.Add(1)
		part, epoch, ok, err := g.members[idx].AnswerRangeEpoch(ctx, keys, lo, hi)
		h.inflight.Add(-1)
		if err == nil && !ok {
			// Shares of an unnamed table version can never be merged.
			err = errors.New("engine: partial shares carry no table epoch")
		}
		if err == nil {
			h.onSuccess()
			return shardAnswer{part: part, epoch: epoch, name: g.names[idx]}, nil
		}
		memberErrs[idx] = err
		if ctx.Err() == nil {
			h.onFailure(err, time.Now())
		}
	}
	return shardAnswer{}, c.groupErr(g, memberErrs)
}

func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// groupErr assembles the all-members-failed cause: the single member's
// bare error for a one-member group (the common remote-shard case keeps
// its exact error chain), an enumeration of every member's name and
// failure otherwise — quarantined members included, with the reason they
// were skipped.
func (c *Cluster) groupErr(g *shardGroup, memberErrs []error) error {
	if len(g.members) == 1 && memberErrs[0] != nil {
		return memberErrs[0]
	}
	gf := &groupFailure{}
	for j := range g.members {
		switch {
		case memberErrs[j] != nil:
			gf.parts = append(gf.parts, fmt.Sprintf("%s: %v", g.names[j], memberErrs[j]))
			gf.causes = append(gf.causes, memberErrs[j])
		default:
			_, stale, lastErr := g.health[j].status()
			if !stale {
				continue // never picked (e.g. ctx died first) and nothing to report
			}
			reason := "stale epoch"
			if lastErr != nil {
				reason = lastErr.Error()
			}
			gf.parts = append(gf.parts, fmt.Sprintf("%s: quarantined (%s); heal to rejoin", g.names[j], reason))
			if lastErr != nil {
				gf.causes = append(gf.causes, lastErr)
			}
		}
	}
	if len(gf.parts) == 0 {
		return errors.New("no serviceable replica-group member")
	}
	return gf
}

// answerOnce runs one fan-out/merge pass; the pass's state is pooled. In a
// chained cluster every shard's sub-batch runs on the calling goroutine:
// shard 0's request, once written, starts shard 1's from its send hook and
// so on, so the requests leave back to back and the replies are read last
// shard first. A shard that failed before sending started no successor,
// and the loop starts it here, under the pass context the failure ended.
// Otherwise shard 0's sub-batch runs on the calling goroutine and every
// other shard's on a goroutine of its own, since an in-process member
// computes on its caller's goroutine. The partials merge into shard 0's,
// which a member hands over to its caller.
func (c *Cluster) answerOnce(ctx context.Context, keys [][]byte) ([][]uint32, error) {
	f := c.getFanout(ctx, keys)
	defer c.putFanout(f)
	if c.chained {
		for f.next < len(c.groups) {
			f.startNext()
		}
	} else {
		f.wg.Add(len(c.groups) - 1)
		for _, run := range f.run[1:] {
			go run()
		}
		f.shard(0)
		f.wg.Wait()
	}
	// Prefer the shard that actually failed over siblings that merely saw
	// the cancellation it triggered.
	fail := -1
	for i, err := range f.errs {
		if err == nil {
			continue
		}
		if fail < 0 || (errors.Is(f.errs[fail], context.Canceled) && !errors.Is(err, context.Canceled)) {
			fail = i
		}
	}
	if fail >= 0 {
		return nil, &ShardError{Shard: fail, Name: c.groups[fail].names[0], Lo: c.bounds[fail], Hi: c.bounds[fail+1], Err: f.errs[fail]}
	}
	// Partials may only merge when they were computed against one table
	// epoch: members on different epochs would sum shares of two
	// different tables into one silently wrong answer.
	results := f.results
	for i, r := range results[1:] {
		if r.epoch != results[0].epoch {
			return nil, fmt.Errorf("%w: shard 0 (%s) at epoch %d, shard %d (%s) at epoch %d",
				ErrMixedEpoch, results[0].name, results[0].epoch, i+1, r.name, r.epoch)
		}
	}
	for i, r := range results {
		if len(r.part) != len(keys) {
			return nil, &ShardError{Shard: i, Name: r.name, Lo: c.bounds[i], Hi: c.bounds[i+1],
				Err: fmt.Errorf("engine: %d partial shares for %d keys", len(r.part), len(keys))}
		}
		for q, p := range r.part {
			if len(p) != c.lanes {
				return nil, &ShardError{Shard: i, Name: r.name, Lo: c.bounds[i], Hi: c.bounds[i+1],
					Err: fmt.Errorf("engine: partial share %d has %d lanes, table has %d", q, len(p), c.lanes)}
			}
		}
	}
	answers := results[0].part
	for _, r := range results[1:] {
		for q, a := range answers {
			for l, v := range r.part[q] {
				a[l] += v
			}
		}
	}
	return answers, nil
}

// shardErr wraps err as the named failure of member m.
func (c *Cluster) shardErr(m clusterMember, err error) *ShardError {
	return &ShardError{Shard: m.shard, Name: m.name, Lo: c.bounds[m.shard], Hi: c.bounds[m.shard+1], Err: err}
}

// forMembers runs fn on every member concurrently and returns the first
// failure as a named ShardError (nil when all succeed).
func (c *Cluster) forMembers(ms []clusterMember, fn func(i int) error) error {
	errs := make([]error, len(ms))
	var wg sync.WaitGroup
	wg.Add(len(ms))
	for i := range ms {
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return c.shardErr(ms[i], err)
		}
	}
	return nil
}

// Epoch returns the cluster's table epoch, which every active
// (non-quarantined) member must agree on; disagreement (a member that
// missed an update outside a handshake, a freshly restarted node at epoch
// 0) is a named error, never a quiet majority vote.
func (c *Cluster) Epoch(ctx context.Context) (uint64, error) {
	ms := c.activeMembers()
	epochs := make([]uint64, len(ms))
	if err := c.forMembers(ms, func(i int) error {
		var eerr error
		epochs[i], eerr = ms[i].be.Epoch(ctx)
		return eerr
	}); err != nil {
		return 0, err
	}
	for i := 1; i < len(ms); i++ {
		if epochs[i] != epochs[0] {
			return 0, fmt.Errorf("%w: member %s at epoch %d, member %s at epoch %d",
				ErrMixedEpoch, ms[0].name, epochs[0], ms[i].name, epochs[i])
		}
	}
	if len(epochs) == 0 {
		return 0, errors.New("engine: every cluster member is quarantined")
	}
	return epochs[0], nil
}

// UpdateBatch installs the row writes atomically across the whole cluster
// — every reachable replica-group member — via the epoch handshake: all
// participants prepare epoch N+1, and the commit wave starts only when
// every participant acked the prepare. Any straggler aborts the epoch
// everywhere (prepared members drop the staged epoch, committed members
// roll back), so a partial failure leaves every participant readable at
// epoch N and the burned epoch number is never reissued.
//
// Promotion happens here: a member that cannot report its epoch (node
// down) or reports an older epoch than its siblings is quarantined —
// excluded from this and future handshakes and from answer rotation until
// Heal catches it up — rather than blocking the update or being blended
// in stale. The update fails only when a shard would lose its LAST
// member. Concurrent Answers are not blocked: they keep their pinned
// snapshots, and a batch that straddles the commit wave is caught by the
// merge epoch check and retried (a batch on its last re-fan holds the
// wave off until it is served).
func (c *Cluster) UpdateBatch(ctx context.Context, writes []RowWrite) (uint64, error) {
	if err := validateRowWrites(writes, c.rows, c.lanes); err != nil {
		return 0, err
	}
	c.umu.Lock()
	defer c.umu.Unlock()
	ms := c.activeMembers()
	// Gather every participant's epoch. The max wins: members below it
	// missed a past update and are quarantined, members that cannot
	// answer are unreachable and are quarantined too — both rejoin via
	// Heal, at the then-current epoch.
	epochs := make([]uint64, len(ms))
	gatherErrs := make([]error, len(ms))
	var wg sync.WaitGroup
	wg.Add(len(ms))
	for i := range ms {
		go func(i int) {
			defer wg.Done()
			epochs[i], gatherErrs[i] = ms[i].be.Epoch(ctx)
		}(i)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return 0, fmt.Errorf("engine: cluster update refused: %w", err)
	}
	var epoch uint64
	seen := false
	for i := range ms {
		if gatherErrs[i] == nil {
			if !seen || epochs[i] > epoch {
				epoch, seen = epochs[i], true
			}
		}
	}
	participants := ms[:0]
	for i, m := range ms {
		switch {
		case gatherErrs[i] != nil:
			m.h.quarantine(fmt.Errorf("unreachable during cluster update: %w", gatherErrs[i]))
		case epochs[i] < epoch:
			m.h.quarantine(fmt.Errorf("behind at epoch %d (cluster at epoch %d)", epochs[i], epoch))
		default:
			participants = append(participants, m)
		}
	}
	if err := c.requireAllShards(participants); err != nil {
		return 0, fmt.Errorf("engine: cluster update refused: %w", err)
	}
	target := epoch + 1
	// Each participant stages only the writes for its own row range (the
	// rows its answers can ever read); members whose range the batch does
	// not touch stage an empty write set — an epoch tick, so the whole
	// cluster moves to N+1 in lockstep and the merge check stays sharp.
	perShard := make([][]RowWrite, len(c.groups))
	for _, w := range writes {
		i := 0
		for int(w.Row) >= c.bounds[i+1] {
			i++
		}
		perShard[i] = append(perShard[i], w)
	}
	abortAll := func() {
		// The caller's ctx may already be dead (its deadline may be WHY
		// a phase failed); the rollback must still reach every member.
		actx, acancel := context.WithTimeout(context.WithoutCancel(ctx), abortTimeout)
		defer acancel()
		var awg sync.WaitGroup
		awg.Add(len(participants))
		for i := range participants {
			go func(i int) {
				defer awg.Done()
				_ = participants[i].be.AbortUpdate(actx, target) // idempotent; best effort
			}(i)
		}
		awg.Wait()
	}
	if err := c.forMembers(participants, func(i int) error {
		return participants[i].be.PrepareUpdate(ctx, target, perShard[participants[i].shard])
	}); err != nil {
		abortAll()
		return 0, fmt.Errorf("engine: cluster update aborted at prepare: %w", err)
	}
	if err := c.forMembers(participants, func(i int) error {
		return participants[i].be.CommitUpdate(ctx, target)
	}); err != nil {
		abortAll()
		return 0, fmt.Errorf("engine: cluster update rolled back at commit: %w", err)
	}
	return target, nil
}

// requireAllShards fails (naming the starved shard and every member's
// state) when some shard has no member among ms — an update that skipped
// a whole shard would desynchronize the row split, and an answer could
// never be served.
func (c *Cluster) requireAllShards(ms []clusterMember) error {
	alive := make([]int, len(c.groups))
	for _, m := range ms {
		alive[m.shard]++
	}
	for i, n := range alive {
		if n > 0 {
			continue
		}
		g := c.groups[i]
		return &ShardError{Shard: i, Name: g.names[0], Lo: c.bounds[i], Hi: c.bounds[i+1],
			Err: c.groupErr(g, make([]error, len(g.members)))}
	}
	return nil
}

// ValidateKey implements KeyValidator: the key must unmarshal, carry the
// cluster's party, be scalar, match the domain's tree depth and served
// early-termination depth, and be in the served key wire format —
// the same checks Replica.ValidateKey runs, performed at the cluster front
// so a bad key fails its own request before any network fan-out.
func (c *Cluster) ValidateKey(raw []byte) error {
	prefix := func() string {
		return fmt.Sprintf("engine cluster (prg=%s, key wire v%d)", c.prgName, dpf.WireVersion(raw))
	}
	// Pooled: UnmarshalBinary reuses a key's correction-word capacity.
	k, _ := c.keys.Get().(*dpf.Key)
	if k == nil {
		k = new(dpf.Key)
	}
	defer c.keys.Put(k)
	if err := k.UnmarshalBinary(raw); err != nil {
		return fmt.Errorf("%s: %w", prefix(), err)
	}
	if err := validatePinnedKey(k, c.party, dpf.DomainBits(c.rows), c.early); err != nil {
		return fmt.Errorf("%s: %w", prefix(), err)
	}
	return nil
}

// Close closes every member backend that is closeable (remote shard
// clients included); in-process replicas have nothing to close.
func (c *Cluster) Close() error {
	var first error
	for _, m := range c.members() {
		if closer, ok := m.be.(io.Closer); ok {
			if err := closer.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

var _ Backend = (*Cluster)(nil)
var _ KeyValidator = (*Cluster)(nil)
