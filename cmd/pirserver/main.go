// Command pirserver runs one party of the two-server PIR protocol over
// TCP. Start two instances (party 0 and party 1, ideally on different
// machines/clouds) with the same table seed, then query them with
// pirclient.
//
// Requests flow through the same path the benchmarks measure: a
// serving.Front groups incoming keys under a size/deadline policy and
// executes each formed batch on a sharded engine.Replica, so concurrent
// clients share table passes instead of queueing behind each other.
// -maxqueue bounds the admission queue — requests past the bound are shed
// immediately with a named overload error instead of collapsing queue
// latency — and -slo turns on adaptive batching: the front re-tunes the
// batch size and deadline against the measured arrival rate to stay
// inside the SLO. The wire protocol also carries a row-update op and a
// stats probe (admission and epoch-retry counters), which is what
// cmd/pirload drives and measures.
//
//	pirserver -party 0 -addr :7700 -rows 65536 -lanes 32 -seed 42 -shards 4
//	pirserver -party 1 -addr :7701 -rows 65536 -lanes 32 -seed 42 -shards 4
//
// One party can also span machines. Each machine runs a shard node that
// holds and serves one contiguous slice of the row domain over the
// shardnet protocol, and a front instance assembles them (with optional
// local shards) into one engine.Cluster behind the ordinary client-facing
// protocol — answers are bit-identical to the single-process server:
//
//	pirserver -party 0 -shardnode 0/2 -addr :7800 -rows 1048576 -seed 42
//	pirserver -party 0 -shardnode 1/2 -addr :7801 -rows 1048576 -seed 42
//	pirserver -party 0 -cluster host0:7800,host1:7801 -addr :7700 -rows 1048576
//
// -group generalizes -cluster to N-member replica groups: commas still
// separate shards, pipes separate the members of one shard's group. The
// front load-balances answer batches across each group's healthy members,
// retries a failed member's batch on the next — answers stay bit-identical
// because the epoch handshake keeps every member on the same table
// version — and quarantines members that miss an epoch until they are
// healed:
//
//	pirserver -party 0 -group host0:7800|host2:7800|host4:7800,host1:7801|host3:7801 \
//	          -addr :7700 -rows 1048576
//
// A shard node started with -join pulls the current table snapshot from a
// healthy same-shard peer over the shardnet snapshot RPCs before serving,
// so a restarted (or brand-new) member enters rotation at the cluster's
// current epoch instead of waiting quarantined for a front-side heal:
//
//	pirserver -party 0 -shardnode 0/2 -join host0:7800 -addr :7802 -rows 1048576 -seed 42
//
// The shardnet handshake pins the wire version, PRF, early-termination
// depth and party (and advertises the node's table epoch), so a
// misconfigured node is refused at dial time with both values named
// instead of corrupting shares at merge time.
//
// Updates: -refresh/-refreshrows drive the paper's transparent update
// path (§4.2) as a deterministic background load — every tick a batch of
// rows is rewritten with content derived from (seed, row, generation), so
// independently started parties keep identical tables. On a single server
// the batch lands as one store epoch; on a cluster front it runs the
// prepare/commit epoch handshake across every member of every shard —
// all-or-nothing, with concurrent answers pinned to the prior epoch.
//
// On SIGTERM/SIGINT the server shuts down gracefully: it stops accepting,
// drains the in-flight batcher batches, and closes shardnet
// serving/clients cleanly.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"gpudpf/internal/dpf"
	"gpudpf/internal/engine"
	"gpudpf/internal/pir"
	"gpudpf/internal/serving"
	"gpudpf/internal/shardnet"
	"gpudpf/internal/store"
	"gpudpf/internal/strategy"
)

func main() {
	party := flag.Int("party", 0, "which share this server computes (0 or 1)")
	addr := flag.String("addr", ":7700", "listen address")
	rows := flag.Int("rows", 65536, "table rows")
	lanes := flag.Int("lanes", 32, "uint32 lanes per row (entry bytes / 4)")
	seed := flag.Int64("seed", 42, "deterministic table content seed (must match the peer, which must also run the same pirserver build — the seed→content scheme is not stable across versions)")
	prg := flag.String("prg", "aes128", "PRF (must match clients): aes128, chacha20, siphash, highway, sha256")
	early := flag.Int("early", dpf.DefaultEarlyBits, "early-termination depth clients' keys carry (must match clients; 0 = legacy full-depth wire-v1 keys)")
	shards := flag.Int("shards", 0, "row-range shards evaluated concurrently (0 = unsharded)")
	workers := flag.Int("workers", 0, "shard worker pool size (0 = GOMAXPROCS)")
	batch := flag.Int("batch", 64, "max keys per formed batch (0 disables the batching front door)")
	maxDelay := flag.Duration("maxdelay", 2*time.Millisecond, "max time a request waits for its batch to fill")
	maxQueue := flag.Int("maxqueue", 0, "admission bound: max requests waiting or in service before new ones are shed with a named overload error (0 = unbounded)")
	slo := flag.Duration("slo", 0, "latency SLO for adaptive batching: the front door re-tunes -batch/-maxdelay against the measured arrival rate to stay inside it (0 = static policy)")
	shardNode := flag.String("shardnode", "", "serve one shard of the row domain over the shardnet protocol instead of the client protocol; format i/n = rows [i·rows/n,(i+1)·rows/n)")
	cluster := flag.String("cluster", "", "comma-separated shardnet node addresses; front a distributed replica over them instead of a local table")
	group := flag.String("group", "", "replica groups per shard: comma-separated shards, each a |-separated list of member node addresses (e.g. \"a|b|c,d|e\"); generalizes -cluster to N load-balanced members")
	join := flag.String("join", "", "shard-node only: pull the current table snapshot from this healthy same-shard peer (host:port) over shardnet before serving, so a restarted member rejoins at the cluster's epoch")
	refresh := flag.Duration("refresh", 0, "rewrite a deterministic batch of rows this often (0 = off) — the transparent update path; both parties must use the same -refresh, -refreshrows and -seed")
	refreshRows := flag.Int("refreshrows", 64, "rows per refresh batch (one table epoch per batch; on a cluster front, one epoch handshake)")
	tableFile := flag.String("table-file", "", "serve table rows out-of-core from this file instead of holding them in RAM; created from (-rows,-lanes,-seed) if absent — on a shard node, only the node's row slice is filled — and validated against the flags if present (single server or -shardnode)")
	pageCache := flag.Int64("pagecache", store.DefaultPageCacheBytes, "page-cache byte budget for -table-file; tables larger than this are paged off disk on demand")
	flag.Parse()

	if *shardNode != "" && (*cluster != "" || *group != "") {
		log.Fatal("pirserver: -shardnode and -cluster/-group are mutually exclusive")
	}
	if *group != "" && *cluster != "" {
		log.Fatal("pirserver: -group replaces -cluster; use one addressing form or the other")
	}
	if *join != "" && *shardNode == "" {
		log.Fatal("pirserver: -join belongs on a shard node (-shardnode)")
	}
	if *refreshRows < 1 {
		log.Fatal("pirserver: -refreshrows must be >= 1")
	}
	if *refresh != 0 && *shardNode != "" {
		log.Fatal("pirserver: -refresh belongs on the cluster front (or a single server), not on a shard node — nodes receive updates over shardnet")
	}
	if *tableFile != "" && (*cluster != "" || *group != "") {
		log.Fatal("pirserver: -table-file serves local table rows (single server or shard node); a cluster front holds no rows")
	}
	if *pageCache < 1 {
		log.Fatal("pirserver: -pagecache must be >= 1")
	}
	door := doorConfig{batch: *batch, maxDelay: *maxDelay, maxQueue: *maxQueue, slo: *slo}
	switch {
	case *shardNode != "":
		runShardNode(*shardNode, *join, *party, *addr, *rows, *lanes, *seed, *prg, *early, *shards, *workers, *tableFile, *pageCache)
	case *cluster != "" || *group != "":
		spec := *cluster + *group // -cluster a,b is -group a,b: one member per shard
		groups, err := parseGroups(spec)
		if err != nil {
			log.Fatalf("pirserver: %v", err)
		}
		runClusterFront(groups, spec, *party, *addr, *rows, *seed, *prg, *early, door, *refresh, *refreshRows)
	default:
		runSingle(*party, *addr, *rows, *lanes, *seed, *prg, *early, *shards, *workers, door, *refresh, *refreshRows, *tableFile, *pageCache)
	}
}

// doorConfig carries the batching-front-door flags: the static batch
// policy, the admission bound, and the adaptive-tuning SLO.
type doorConfig struct {
	batch    int
	maxDelay time.Duration
	maxQueue int
	slo      time.Duration
}

// parseGroups resolves a cluster front's -group (or -cluster) list into
// one member-address list per shard: commas separate shards, pipes separate
// one shard's replica-group members ("a|b|c,d|e").
func parseGroups(spec string) (groups [][]string, err error) {
	for i, shard := range strings.Split(spec, ",") {
		var members []string
		for _, m := range strings.Split(shard, "|") {
			if m = strings.TrimSpace(m); m != "" {
				members = append(members, m)
			}
		}
		if len(members) == 0 {
			return nil, fmt.Errorf("shard %d lists no member addresses", i)
		}
		groups = append(groups, members)
	}
	return groups, nil
}

// notifyShutdown closes the listener on SIGTERM/SIGINT, which unblocks the
// serving accept loop; the caller then drains and closes its stack in
// order. The returned channel reports whether a signal (vs. a listener
// failure) ended serving.
func notifyShutdown(l net.Listener) chan os.Signal {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	go func() {
		s, ok := <-sig
		if !ok {
			return
		}
		log.Printf("pirserver: %v: stopping accept loop, draining in-flight batches", s)
		l.Close()
	}()
	return sig
}

// runSingle is the classic single-process server: full local table behind
// the batching front door. With tableFile set, the table lives on disk and
// the server pages rows through a bounded cache instead of holding the
// whole table in RAM — same wire behavior, out-of-core memory profile.
func runSingle(party int, addr string, rows, lanes int, seed int64, prg string, early, shards, workers int, door doorConfig, refresh time.Duration, refreshRows int, tableFile string, pageCache int64) {
	var srv *pir.Server
	var err error
	opts := []pir.ServerOption{pir.WithPRG(prg), pir.WithEarly(early), pir.WithSharding(shards, workers)}
	if tableFile != "" {
		st, cleanup, perr := openPagedStore(tableFile, rows, lanes, seed, 0, rows, pageCache)
		if perr != nil {
			log.Fatalf("pirserver: -table-file %s: %v", tableFile, perr)
		}
		defer cleanup()
		srv, err = pir.NewServerOverStore(party, st, opts...)
	} else {
		var tab *pir.Table
		tab, err = buildTable(rows, lanes, seed, 0, rows)
		if err != nil {
			log.Fatalf("pirserver: %v", err)
		}
		srv, err = pir.NewServer(party, tab, opts...)
	}
	if err != nil {
		log.Fatalf("pirserver: %v", err)
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatalf("pirserver: %v", err)
	}
	answerer, inflight, closeDoor := front(srv, srv.Engine(), door)
	log.Printf("pirserver: party %d serving %d×%dB table on %s (prg=%s aes=%s acc=%s early=%d shards=%d batch=%d inflight=%d maxqueue=%d slo=%v)",
		party, rows, lanes*4, l.Addr(), prg, dpf.AESKernel(), strategy.AccumulateKernel(), srv.Engine().EarlyBits(), srv.Engine().Shards(), door.batch, inflight, door.maxQueue, door.slo)
	stopRefresh := startRefresher(refresh, refreshRows, rows, lanes, seed, srv.Engine())
	sig := notifyShutdown(l)
	if err := pir.Serve(l, answerer); err != nil {
		log.Fatalf("pirserver: %v", err)
	}
	signal.Stop(sig)
	close(sig)
	stopRefresh()
	closeDoor()
	log.Printf("pirserver: shutdown complete")
}

// runShardNode serves one contiguous slice of the row domain over the
// shardnet protocol: the node builds (and pages in) only its own rows of
// the deterministic table and answers AnswerRange RPCs from a cluster
// front. With tableFile set, the node's slice lives on disk behind the
// bounded page cache instead of in RAM — a cluster of paged nodes serves a
// table no single machine could hold, bit-identically to in-RAM nodes.
// With join non-empty, the node first pulls the current snapshot of its
// rows from that healthy same-shard peer, so it starts serving at the
// cluster's current epoch instead of generation 0.
func runShardNode(spec, join string, party int, addr string, rows, lanes int, seed int64, prg string, early, shards, workers int, tableFile string, pageCache int64) {
	idx, count, err := parseShardSpec(spec)
	if err != nil {
		log.Fatalf("pirserver: %v", err)
	}
	lo, hi := engine.ShardRange(rows, idx, count)
	if lo >= hi {
		log.Fatalf("pirserver: shard %d/%d of a %d-row table holds no rows", idx, count, rows)
	}
	opts := []pir.ServerOption{pir.WithPRG(prg), pir.WithEarly(early), pir.WithSharding(shards, workers)}
	var rep *engine.Replica
	if tableFile != "" {
		st, cleanup, perr := openPagedStore(tableFile, rows, lanes, seed, lo, hi, pageCache)
		if perr != nil {
			log.Fatalf("pirserver: -table-file %s: %v", tableFile, perr)
		}
		defer cleanup()
		rep, err = pir.NewReplicaOverStore(party, st, opts...)
	} else {
		var tab *pir.Table
		tab, err = buildTable(rows, lanes, seed, lo, hi)
		if err != nil {
			log.Fatalf("pirserver: %v", err)
		}
		rep, err = pir.NewReplica(party, tab, opts...)
	}
	if err != nil {
		log.Fatalf("pirserver: %v", err)
	}
	if join != "" {
		if err := joinFromPeer(rep, join, party, prg, lanes, lo, hi); err != nil {
			log.Fatalf("pirserver: -join %s: %v", join, err)
		}
	}
	node, err := shardnet.NewServer(rep, shardnet.ServerConfig{RowLo: lo, RowHi: hi})
	if err != nil {
		log.Fatalf("pirserver: %v", err)
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatalf("pirserver: %v", err)
	}
	log.Printf("pirserver: party %d shard node %d/%d serving rows [%d,%d) of %d×%dB table on %s (prg=%s aes=%s acc=%s early=%d)",
		party, idx, count, lo, hi, rows, lanes*4, l.Addr(), prg, dpf.AESKernel(), strategy.AccumulateKernel(), rep.EarlyBits())
	sig := notifyShutdown(l)
	if err := node.Serve(l); err != nil {
		log.Fatalf("pirserver: %v", err)
	}
	signal.Stop(sig)
	close(sig)
	node.Close() // close live connections, cancel in-flight backend work
	log.Printf("pirserver: shutdown complete")
}

// joinFromPeer pulls the donor peer's current table snapshot for rows
// [lo, hi) over the shardnet snapshot RPCs and installs it in rep before
// the node starts serving — the shard-node side of healing. The peer may
// legitimately advance its epoch mid-pull (refresh churn on the front);
// joinFromPeer retries a bounded number of rounds, and a node that still
// lands slightly behind simply starts quarantined until the front heals
// it, so best effort is safe.
func joinFromPeer(rep *engine.Replica, peer string, party int, prg string, lanes, lo, hi int) error {
	pin := rep.EarlyBits()
	if pin == 0 {
		pin = engine.FullDepthKeys
	}
	cl, err := shardnet.Dial(peer, shardnet.Options{PRG: prg, Early: pin, Party: party})
	if err != nil {
		return err
	}
	defer cl.Close()
	ctx := context.Background()
	var lastErr error
	for attempt := 0; attempt < 5; attempt++ {
		done, err := joinOnce(ctx, rep, cl, peer, lanes, lo, hi)
		if err != nil {
			lastErr = err
			continue
		}
		if done {
			return nil
		}
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("node did not converge to peer %s's epoch (churn too fast?); starting anyway — the front will heal it", peer)
		log.Printf("pirserver: join: %v", lastErr)
		return nil
	}
	return lastErr
}

// joinOnce runs one snapshot pull round; done reports the node's
// effective epoch has reached the peer's.
func joinOnce(ctx context.Context, rep *engine.Replica, cl *shardnet.Client, peer string, lanes, lo, hi int) (done bool, err error) {
	snapEpoch, effEpoch, pLo, pHi, err := cl.SnapshotMeta(ctx)
	if err != nil {
		return false, err
	}
	if pLo > lo || pHi < hi {
		return false, fmt.Errorf("peer holds rows [%d,%d), cannot donate [%d,%d)", pLo, pHi, lo, hi)
	}
	have, err := rep.Epoch(ctx)
	if err != nil {
		return false, err
	}
	if have >= effEpoch {
		log.Printf("pirserver: join: at epoch %d, peer %s effective epoch %d; in sync", have, peer, effEpoch)
		return true, nil
	}
	if snapEpoch <= have {
		// Only burned epoch numbers separate us: raise the floor (an abort
		// burns idempotently) instead of re-pulling a table we already hold.
		if err := rep.AbortUpdate(ctx, effEpoch); err != nil {
			return false, err
		}
		return false, nil // re-check next round
	}
	words := (hi - lo) * lanes
	buf := make([]uint32, 0, words)
	const chunkWords = 256 << 10
	for len(buf) < words {
		// Chunk offsets are relative to the peer's held range.
		off := (lo-pLo)*lanes + len(buf)
		chunk, err := cl.SnapshotChunk(ctx, snapEpoch, off, min(chunkWords, words-len(buf)))
		if err != nil {
			return false, err
		}
		if len(chunk) == 0 {
			return false, fmt.Errorf("peer snapshot stream ended at %d of %d words", len(buf), words)
		}
		if len(buf)+len(chunk) > words {
			return false, fmt.Errorf("peer snapshot stream overran %d words", words)
		}
		buf = append(buf, chunk...)
	}
	if err := rep.AdoptSnapshot(ctx, snapEpoch, effEpoch, lo, hi, buf); err != nil {
		return false, err
	}
	log.Printf("pirserver: join: adopted rows [%d,%d) at epoch %d (effective %d) from peer %s", lo, hi, snapEpoch, effEpoch, peer)
	return false, nil // next round verifies the peer did not move meanwhile
}

// runClusterFront assembles a distributed replica over remote shard nodes
// and serves the ordinary client protocol through it: the front holds no
// table rows itself, it validates keys, batches requests, fans each batch
// out as pruned-range evaluations load-balanced across each shard's
// replica-group members, and merges the partial shares.
func runClusterFront(groups [][]string, display string, party int, addr string, rows int, seed int64, prg string, early int, door doorConfig, refresh time.Duration, refreshRows int) {
	// Same flag validation as the other two modes (pir.WithEarly): a bad
	// -early must fail fast here too, not be silently clamped into an
	// "accept any depth" pin.
	if early < 0 || early > dpf.MaxEarlyBits {
		log.Fatalf("pirserver: early-termination depth %d out of range [0,%d]", early, dpf.MaxEarlyBits)
	}
	pin := dpf.ClampEarly(early, dpf.DomainBits(rows))
	if early == 0 {
		pin = engine.FullDepthKeys
	}
	dialNode := func(node string) *shardnet.Client {
		cl, err := shardnet.Dial(node, shardnet.Options{PRG: prg, Early: pin, Party: party})
		if err != nil {
			log.Fatalf("pirserver: node %s: %v", node, err)
		}
		if nr, nl := cl.Shape(); nr != rows {
			log.Fatalf("pirserver: node %s serves a %d×%d table, front expects %d rows", node, nr, nl, rows)
		}
		return cl
	}
	shardsCfg := make([]engine.ClusterShard, len(groups))
	total := 0
	for i, members := range groups {
		for _, node := range members {
			shardsCfg[i].Members = append(shardsCfg[i].Members, dialNode(node))
			shardsCfg[i].MemberNames = append(shardsCfg[i].MemberNames, node)
		}
		total += len(members)
	}
	cluster, err := engine.NewCluster(shardsCfg...)
	if err != nil {
		log.Fatalf("pirserver: %v", err)
	}
	// A formed batch is forwarded to every shard node whole; a front batch
	// the nodes would refuse — over their request key cap, or wide enough
	// that the ANSWER frame (batch × lanes × 4 bytes) exceeds the frame
	// cap — would fail only once load actually fills it. Clamp now instead.
	_, lanes := cluster.Shape()
	maxBatch := shardnet.DefaultMaxBatch
	if byResp := (shardnet.DefaultMaxFrame - 64) / (4 * lanes); byResp < maxBatch {
		maxBatch = byResp
	}
	if door.batch > maxBatch {
		log.Printf("pirserver: clamping -batch %d to %d (shard nodes' request/response frame caps at %d lanes)", door.batch, maxBatch, lanes)
		door.batch = maxBatch
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatalf("pirserver: %v", err)
	}
	answerer, inflight, closeDoor := front(pir.BackendEndpoint{Backend: cluster}, cluster, door)
	log.Printf("pirserver: party %d cluster front over %d shards / %d members (%s) serving %d×%dB table on %s (prg=%s early=%d batch=%d inflight=%d maxqueue=%d slo=%v)",
		party, len(groups), total, display, rows, lanes*4, l.Addr(), prg, cluster.EarlyBits(), door.batch, inflight, door.maxQueue, door.slo)
	stopRefresh := startRefresher(refresh, refreshRows, rows, lanes, seed, cluster)
	sig := notifyShutdown(l)
	if err := pir.Serve(l, answerer); err != nil {
		log.Fatalf("pirserver: %v", err)
	}
	signal.Stop(sig)
	close(sig)
	stopRefresh()
	closeDoor()
	cluster.Close()
	log.Printf("pirserver: shutdown complete")
}

// updater is the slice of engine.EpochBackend both refreshable serving
// modes share: a Replica (one store epoch per batch) or a Cluster (one
// epoch handshake per batch).
type updater interface {
	UpdateBatch(ctx context.Context, writes []engine.RowWrite) (uint64, error)
}

// startRefresher drives the transparent update path: every `every`, the
// next generation's row batch — rows and content both derived from
// (seed, generation), so both parties running the same flags rewrite
// identical rows with identical values — lands as ONE atomic epoch.
// Returns a stop function that waits for the driver to exit.
func startRefresher(every time.Duration, rowsPerBatch, rows, lanes int, seed int64, be updater) (stop func()) {
	if every <= 0 {
		return func() {}
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		ticker := time.NewTicker(every)
		defer ticker.Stop()
		for gen := uint64(1); ; gen++ {
			select {
			case <-done:
				return
			case <-ticker.C:
			}
			writes := refreshBatch(seed, gen, rows, lanes, rowsPerBatch)
			epoch, err := be.UpdateBatch(context.Background(), writes)
			if err != nil {
				log.Printf("pirserver: refresh generation %d failed (will retry next tick): %v", gen, err)
				gen-- // both parties must apply every generation in order
				continue
			}
			if gen == 1 || gen%64 == 0 {
				log.Printf("pirserver: refresh generation %d: %d rows installed as epoch %d", gen, len(writes), epoch)
			}
		}
	}()
	return func() {
		close(done)
		<-finished
	}
}

// refreshBatch derives generation gen's row writes: a deterministic row
// set and deterministic content, both functions of (seed, gen) alone.
func refreshBatch(seed int64, gen uint64, rows, lanes, batch int) []engine.RowWrite {
	if batch > rows {
		batch = rows
	}
	writes := make([]engine.RowWrite, 0, batch)
	seen := make(map[uint64]bool, batch)
	// A splitmix64 stream keyed by (seed, gen) picks the rows.
	state := uint64(seed) ^ gen*0xA24BAED4963EE407
	for len(writes) < batch {
		state += 0x9E3779B97F4A7C15
		row := mix64(state) % uint64(rows)
		if seen[row] {
			continue
		}
		seen[row] = true
		vals := make([]uint32, lanes)
		fillRow(vals, seed, int(row), gen)
		writes = append(writes, engine.RowWrite{Row: row, Vals: vals})
	}
	return writes
}

// front wraps the direct answer path with the serving front door when
// batching is enabled: key validation, the batcher with admission control
// (door.maxQueue), adaptive policy tuning (door.slo), the wire update op,
// and the serving stats the load harness reads. inflight is how many
// batches the door runs at once (0 when batching is off); closeDoor drains
// pending and in-flight batches (a no-op when batching is off).
func front(direct pir.Answerer, be engine.Backend, door doorConfig) (answerer pir.Answerer, inflight int, closeDoor func()) {
	if door.batch <= 0 {
		return direct, 0, func() {}
	}
	f, err := serving.NewFront(serving.FrontConfig{
		Policy: serving.Policy{
			MaxBatch: door.batch,
			MaxDelay: door.maxDelay,
			MaxQueue: door.maxQueue,
		},
		SLO: door.slo,
	}, be)
	if err != nil {
		log.Fatalf("pirserver: %v", err)
	}
	return f, f.InFlight(), f.Close
}

// parseShardSpec parses "i/n".
func parseShardSpec(spec string) (idx, count int, err error) {
	i, n, ok := strings.Cut(spec, "/")
	if ok {
		if idx, err = strconv.Atoi(i); err == nil {
			count, err = strconv.Atoi(n)
		}
	}
	if !ok || err != nil || count < 1 || idx < 0 || idx >= count {
		return 0, 0, fmt.Errorf("bad -shardnode %q: want i/n with 0 ≤ i < n", spec)
	}
	return idx, count, nil
}

// mix64 is the splitmix64 finalizer.
func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

// fillRow writes row `i`'s deterministic content for the given refresh
// generation (0 = the initial table): a splitmix64 stream keyed by
// (seed, row, gen), a few multiplies per lane with no generator state, so
// fill cost is a small constant times the words written.
func fillRow(dst []uint32, seed int64, i int, gen uint64) {
	state := uint64(seed) ^ (uint64(i)+1)*0x9E3779B97F4A7C15 ^ gen*0xA24BAED4963EE407
	for l := range dst {
		state += 0x9E3779B97F4A7C15
		dst[l] = uint32(mix64(state))
	}
}

// buildTable fills rows [lo, hi) of the table deterministically, so
// independently started parties — and independently started shard nodes of
// one party — hold identical content where their rows overlap. Each row's
// values derive from (seed, row) alone, so both memory AND fill time are
// proportional to the node's own slice: the last shard of a 2^27-row
// table starts as fast as the first. The seed→content mapping is a
// per-version convention, not a wire contract: every instance of a
// deployment (both parties, all shard nodes) must run the same pirserver
// build, as the -seed flag documents — replicas disagreeing on content
// reconstruct garbage with no error anywhere.
// openPagedStore serves the deterministic table out-of-core: if the file
// is absent it is written once by streaming rows [lo, hi) from (seed, row)
// — never materializing the table in RAM (rows outside the slice are
// zero, which a shard node never reads) — and thereafter the server pages
// rows through a cache bounded by pageCache bytes. An existing file must
// match the flags' shape; content is trusted to match the seed (the file
// IS the table — regenerate it after changing -seed or the served slice).
func openPagedStore(path string, rows, lanes int, seed int64, lo, hi int, pageCache int64) (*store.Store, func(), error) {
	if _, err := os.Stat(path); errors.Is(err, os.ErrNotExist) {
		err := store.WriteTableFileRows(path, rows, lanes, func(i int, dst []uint32) {
			if i < lo || i >= hi {
				clear(dst)
				return
			}
			fillRow(dst, seed, i, 0)
		})
		if err != nil {
			return nil, nil, err
		}
		log.Printf("pirserver: wrote rows [%d,%d) of %d×%dB table to %s", lo, hi, rows, lanes*4, path)
	} else if err != nil {
		return nil, nil, err
	}
	pb, err := store.OpenPaged(path, store.PagedConfig{CacheBytes: pageCache})
	if err != nil {
		return nil, nil, err
	}
	if pb.Rows() != rows || pb.Lanes() != lanes {
		pb.Close()
		return nil, nil, fmt.Errorf("file holds a %d×%d table but flags say %d×%d", pb.Rows(), pb.Lanes(), rows, lanes)
	}
	st, err := store.NewPaged(pb)
	if err != nil {
		pb.Close()
		return nil, nil, err
	}
	return st, func() { pb.Close() }, nil
}

func buildTable(rows, lanes int, seed int64, lo, hi int) (*pir.Table, error) {
	tab, err := pir.NewTable(rows, lanes)
	if err != nil {
		return nil, fmt.Errorf("building table: %w", err)
	}
	for i := lo; i < hi; i++ {
		fillRow(tab.Data[i*lanes:(i+1)*lanes], seed, i, 0)
	}
	return tab, nil
}
