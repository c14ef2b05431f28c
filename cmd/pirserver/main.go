// Command pirserver runs one party of the two-server PIR protocol over
// TCP. Start two instances (party 0 and party 1, ideally on different
// machines/clouds) with the same table seed, then query them with
// pirclient.
//
// Requests flow through the same path the benchmarks measure: a
// serving.Front groups incoming keys under a size/deadline policy and
// executes each formed batch on an engine.Replica, so concurrent clients
// share table passes instead of queueing behind each other. A batch uses
// the cores GOMAXPROCS grants (set the environment variable to bound it).
// -maxqueue bounds the admission queue — requests past the bound are shed
// immediately with a named overload error instead of collapsing queue
// latency — and -slo turns on adaptive batching: the front re-tunes the
// batch size and deadline against the measured arrival rate to stay
// inside the SLO. The wire protocol also carries a row-update op and a
// stats probe (admission and epoch-retry counters), which is what
// cmd/pirload drives and measures.
//
//	pirserver -party 0 -addr :7700 -rows 65536 -lanes 32 -seed 42
//	pirserver -party 1 -addr :7701 -rows 65536 -lanes 32 -seed 42
//
// One party can also span machines. Each machine runs a shard node that
// holds and serves one contiguous slice of the row domain over the
// shardnet protocol, and a front instance assembles them into one
// engine.Cluster behind the ordinary client-facing
// protocol — answers are bit-identical to the single-process server:
//
//	pirserver -party 0 -shardnode 0/2 -addr :7800 -rows 1048576 -seed 42
//	pirserver -party 0 -shardnode 1/2 -addr :7801 -rows 1048576 -seed 42
//	pirserver -party 0 -group host0:7800,host1:7801 -addr :7700 -rows 1048576
//
// -group lists each shard's replica group: commas separate shards, pipes
// separate the members of one shard's group. The front load-balances answer batches across each group's healthy members,
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
// Every instance computes one PRF, aes128 (the fixed-key AES hash in
// internal/dpf); there is no PRF flag, and no depth flag: keys terminate
// at the depth the row count gives (§3.1, 2 levels up on any table of 8
// rows or more). The hello pins the wire version, PRF (name and
// construction), party and row count, and states the early-termination
// depth (the welcome also states the table epoch), so a misconfigured node
// — or a pirclient — is refused at dial time with both values named
// instead of corrupting shares at merge or reconstruction time.
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
// drains the in-flight batcher batches for up to drainTimeout — past it a
// cluster front closes its node clients under the batches still held, which
// then fail — and closes shardnet serving/clients cleanly.
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

// config is the flag set, one field per flag.
type config struct {
	party       int
	addr        string
	rows, lanes int
	seed        int64
	batch       int
	maxDelay    time.Duration
	maxQueue    int
	slo         time.Duration
	shardNode   string
	group       string
	join        string
	refresh     time.Duration
	refreshRows int
	tableFile   string
	pageCache   int64
}

// early is the early-termination depth the table serves, which the log
// lines state.
func (cfg config) early() int { return dpf.DefaultEarly(dpf.DomainBits(cfg.rows)) }

func main() {
	var cfg config
	flag.IntVar(&cfg.party, "party", 0, "which share this server computes (0 or 1)")
	flag.StringVar(&cfg.addr, "addr", ":7700", "listen address")
	flag.IntVar(&cfg.rows, "rows", 65536, "table rows")
	flag.IntVar(&cfg.lanes, "lanes", 32, "uint32 lanes per row (entry bytes / 4)")
	flag.Int64Var(&cfg.seed, "seed", 42, "deterministic table content seed (must match the peer, which must also run the same pirserver build — the seed→content scheme is not stable across versions)")
	flag.IntVar(&cfg.batch, "batch", 64, "max keys per formed batch (0 disables the batching front door)")
	flag.DurationVar(&cfg.maxDelay, "maxdelay", 2*time.Millisecond, "max time a request waits for its batch to fill")
	flag.IntVar(&cfg.maxQueue, "maxqueue", 0, "admission bound: max requests waiting or in service before new ones are shed with a named overload error (0 = unbounded)")
	flag.DurationVar(&cfg.slo, "slo", 0, "latency SLO for adaptive batching: the front door re-tunes -batch/-maxdelay against the measured arrival rate to stay inside it (0 = static policy)")
	flag.StringVar(&cfg.shardNode, "shardnode", "", "serve one shard of the row domain over the shardnet protocol instead of the client protocol; format i/n = rows [i·rows/n,(i+1)·rows/n)")
	flag.StringVar(&cfg.group, "group", "", "replica groups per shard: comma-separated shards, each a |-separated list of member node addresses (e.g. \"a|b|c,d|e\"; \"a,b\" is one member per shard); front a distributed replica over them instead of a local table")
	flag.StringVar(&cfg.join, "join", "", "shard-node only: pull the current table snapshot from this healthy same-shard peer (host:port) over shardnet before serving, so a restarted member rejoins at the cluster's epoch")
	flag.DurationVar(&cfg.refresh, "refresh", 0, "rewrite a deterministic batch of rows this often (0 = off) — the transparent update path; both parties must use the same -refresh, -refreshrows and -seed")
	flag.IntVar(&cfg.refreshRows, "refreshrows", 64, "rows per refresh batch (one table epoch per batch; on a cluster front, one epoch handshake)")
	flag.StringVar(&cfg.tableFile, "table-file", "", "serve table rows out-of-core from this file instead of holding them in RAM; created from (-rows,-lanes,-seed) if absent — on a shard node, only the node's row slice is filled — and validated against the flags if present (single server or -shardnode)")
	flag.Int64Var(&cfg.pageCache, "pagecache", store.DefaultPageCacheBytes, "page-cache byte budget for -table-file; tables larger than this are paged off disk on demand")
	flag.Parse()

	front := cfg.group != ""
	if cfg.shardNode != "" && front {
		log.Fatal("pirserver: -shardnode and -group are mutually exclusive")
	}
	if cfg.join != "" && cfg.shardNode == "" {
		log.Fatal("pirserver: -join belongs on a shard node (-shardnode)")
	}
	if cfg.refreshRows < 1 {
		log.Fatal("pirserver: -refreshrows must be >= 1")
	}
	if cfg.refresh != 0 && cfg.shardNode != "" {
		log.Fatal("pirserver: -refresh belongs on the cluster front (or a single server), not on a shard node — nodes receive updates over shardnet")
	}
	if cfg.tableFile != "" && front {
		log.Fatal("pirserver: -table-file serves local table rows (single server or shard node); a cluster front holds no rows")
	}
	if cfg.pageCache < 1 {
		log.Fatal("pirserver: -pagecache must be >= 1")
	}
	switch {
	case cfg.shardNode != "":
		runShardNode(cfg)
	case front:
		runClusterFront(cfg)
	default:
		runSingle(cfg)
	}
}

// parseGroups resolves a cluster front's -group list into
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

// drainTimeout bounds how long a shutdown waits for in-flight batches and
// the refresher's update. Past it a cluster front closes its node clients,
// so a batch held by a node that stopped answering ends with
// shardnet.ErrClosed instead of holding shutdown for the client's 30 s RPC
// timeout.
const drainTimeout = 5 * time.Second

// listen opens the server's port.
func listen(addr string) net.Listener {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatalf("pirserver: %v", err)
	}
	return l
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

// openReplica builds the engine replica over rows [lo, hi) of the
// deterministic table — in RAM, or with -table-file on disk behind the
// bounded page cache: same wire behavior, out-of-core memory profile.
// closeStore releases the table file (a no-op in RAM).
func openReplica(cfg config, lo, hi int) (rep *engine.Replica, closeStore func()) {
	var err error
	if cfg.tableFile == "" {
		var tab *pir.Table
		if tab, err = buildTable(cfg.rows, cfg.lanes, cfg.seed, lo, hi); err == nil {
			rep, err = pir.NewReplica(cfg.party, tab)
		}
		closeStore = func() {}
	} else {
		var st *store.Store
		if st, closeStore, err = openPagedStore(cfg, lo, hi); err != nil {
			log.Fatalf("pirserver: -table-file %s: %v", cfg.tableFile, err)
		}
		rep, err = pir.NewReplicaOverStore(cfg.party, st)
	}
	if err != nil {
		log.Fatalf("pirserver: %v", err)
	}
	return rep, closeStore
}

// serveClients runs the client protocol on l over be — behind the batching
// front door unless -batch 0 — with the refresher beside it, until l
// closes (on SIGTERM/SIGINT); then it drains for up to drainTimeout, and
// past it calls cut, if not nil, to end what is still in flight. A
// pinning client's hello is checked against desc. what and detail are the
// start-up line's mode-specific halves.
func serveClients(cfg config, l net.Listener, be engine.Backend, desc shardnet.Describer, what, detail string, cut func()) {
	var answerer pir.Answerer = pir.BackendEndpoint{Backend: be}
	inflight, closeDoor := 0, func() {}
	if cfg.batch > 0 {
		// Key validation, the batcher with admission control (-maxqueue),
		// adaptive policy tuning (-slo), and the serving stats the load
		// harness reads.
		f, err := serving.NewFront(serving.FrontConfig{
			Policy: serving.Policy{MaxBatch: cfg.batch, MaxDelay: cfg.maxDelay, MaxQueue: cfg.maxQueue},
			SLO:    cfg.slo,
		}, be)
		if err != nil {
			log.Fatalf("pirserver: %v", err)
		}
		answerer, inflight, closeDoor = f, f.InFlight(), f.Close
	}
	log.Printf("pirserver: party %d %s on %s (%s batch=%d inflight=%d maxqueue=%d slo=%v)",
		cfg.party, what, l.Addr(), detail, cfg.batch, inflight, cfg.maxQueue, cfg.slo)
	stopRefresh := startRefresher(cfg, be)
	sig := notifyShutdown(l)
	if err := shardnet.NewFront(answerer, desc, shardnet.ServerConfig{}).Serve(l); err != nil {
		log.Fatalf("pirserver: %v", err)
	}
	signal.Stop(sig)
	close(sig)
	drained := make(chan struct{})
	go func() {
		stopRefresh()
		closeDoor() // drains pending and in-flight batches
		close(drained)
	}()
	select {
	case <-drained:
	case <-time.After(drainTimeout):
		if cut != nil {
			log.Printf("pirserver: batches still in flight after %v: closing the node clients under them", drainTimeout)
			cut()
		}
		<-drained
	}
}

// runSingle is the classic single-process server: full local table behind
// the batching front door.
func runSingle(cfg config) {
	rep, closeStore := openReplica(cfg, 0, cfg.rows)
	defer closeStore()
	serveClients(cfg, listen(cfg.addr), rep, rep, fmt.Sprintf("serving %d×%dB table", cfg.rows, cfg.lanes*4),
		fmt.Sprintf("prg=%s aes=%s acc=%s early=%d", dpf.PRGName, dpf.AESKernel(), strategy.AccumulateKernel(), cfg.early()), nil)
	log.Printf("pirserver: shutdown complete")
}

// runShardNode serves one contiguous slice of the row domain over the
// shardnet protocol: the node builds (and pages in) only its own rows of
// the deterministic table and answers range RPCs from a cluster front — a
// cluster of paged nodes serves a table no single machine could hold,
// bit-identically to in-RAM nodes. With -join, the node first pulls the
// current snapshot of its rows from that healthy same-shard peer, so it
// starts serving at the cluster's current epoch instead of generation 0.
func runShardNode(cfg config) {
	idx, count, err := parseShardSpec(cfg.shardNode)
	if err != nil {
		log.Fatalf("pirserver: %v", err)
	}
	lo, hi := engine.ShardRange(cfg.rows, idx, count)
	if lo >= hi {
		log.Fatalf("pirserver: shard %d/%d of a %d-row table holds no rows", idx, count, cfg.rows)
	}
	rep, closeStore := openReplica(cfg, lo, hi)
	defer closeStore()
	if cfg.join != "" {
		if err := joinFromPeer(cfg, rep, lo, hi); err != nil {
			log.Fatalf("pirserver: -join %s: %v", cfg.join, err)
		}
	}
	node, err := shardnet.NewServer(rep, shardnet.ServerConfig{RowLo: lo, RowHi: hi})
	if err != nil {
		log.Fatalf("pirserver: %v", err)
	}
	l := listen(cfg.addr)
	log.Printf("pirserver: party %d shard node %d/%d serving rows [%d,%d) of %d×%dB table on %s (prg=%s aes=%s acc=%s early=%d)",
		cfg.party, idx, count, lo, hi, cfg.rows, cfg.lanes*4, l.Addr(), dpf.PRGName, dpf.AESKernel(), strategy.AccumulateKernel(), cfg.early())
	sig := notifyShutdown(l)
	if err := node.Serve(l); err != nil {
		log.Fatalf("pirserver: %v", err)
	}
	signal.Stop(sig)
	close(sig)
	node.Close() // close live connections, cancel in-flight backend work
	log.Printf("pirserver: shutdown complete")
}

// joinFromPeer brings rep's rows [lo, hi) to the -join peer's current
// table snapshot before the node starts serving — engine.CatchUp, the same
// rounds a front's Heal runs. The peer may legitimately advance its epoch
// mid-pull (refresh churn on the front); a node that still lands slightly
// behind after a bounded number of rounds simply starts quarantined until
// the front heals it, so best effort is safe.
func joinFromPeer(cfg config, rep *engine.Replica, lo, hi int) error {
	cl, err := shardnet.Dial(cfg.join, shardnet.Options{PRG: dpf.PRGName, Party: cfg.party, Rows: cfg.rows})
	if err != nil {
		return err
	}
	defer cl.Close()
	ctx := context.Background()
	var lastErr error
	for attempt := 0; attempt < 5; attempt++ {
		synced, err := engine.CatchUp(ctx, rep, cl, lo, hi)
		if err != nil {
			lastErr = err
			continue
		}
		if synced {
			epoch, _ := rep.Epoch(ctx)
			log.Printf("pirserver: join: rows [%d,%d) in sync with peer %s at epoch %d", lo, hi, cfg.join, epoch)
			return nil
		}
	}
	if lastErr == nil {
		log.Printf("pirserver: join: node did not converge to peer %s's epoch (churn too fast?); starting anyway — the front will heal it", cfg.join)
	}
	return lastErr
}

// runClusterFront assembles a distributed replica over remote shard nodes
// and serves the ordinary client protocol through it: the front holds no
// table rows itself, it validates keys, batches requests, fans each batch
// out as pruned-range evaluations load-balanced across each shard's
// replica-group members, and merges the partial shares.
func runClusterFront(cfg config) {
	groups, err := parseGroups(cfg.group)
	if err != nil {
		log.Fatalf("pirserver: %v", err)
	}
	pin := shardnet.Options{PRG: dpf.PRGName, Party: cfg.party, Rows: cfg.rows}
	shardsCfg := make([]engine.ClusterShard, len(groups))
	total := 0
	for i, members := range groups {
		for _, node := range members {
			cl, err := shardnet.Dial(node, pin)
			if err != nil {
				log.Fatalf("pirserver: node %s: %v", node, err)
			}
			shardsCfg[i].Members = append(shardsCfg[i].Members, cl)
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
	if cfg.batch > maxBatch {
		log.Printf("pirserver: clamping -batch %d to %d (shard nodes' request/response frame caps at %d lanes)", cfg.batch, maxBatch, lanes)
		cfg.batch = maxBatch
	}
	serveClients(cfg, listen(cfg.addr), cluster, clusterDesc{cluster, cfg.party},
		fmt.Sprintf("cluster front over %d shards / %d members (%s) serving %d×%dB table", len(groups), total, cfg.group, cfg.rows, lanes*4),
		fmt.Sprintf("prg=%s early=%d", dpf.PRGName, cfg.early()), func() { cluster.Close() })
	cluster.Close()
	log.Printf("pirserver: shutdown complete")
}

// clusterDesc states a cluster front's configuration in its welcome: the
// PRF and party every member was pinned to at dial.
type clusterDesc struct {
	*engine.Cluster
	party int
}

func (d clusterDesc) PRGName() string { return dpf.PRGName }
func (d clusterDesc) Party() int      { return d.party }

// startRefresher drives the transparent update path: every -refresh, the
// next generation's row batch — rows and content both derived from
// (seed, generation), so both parties running the same flags rewrite
// identical rows with identical values — lands as ONE atomic epoch.
// Returns a stop function that waits for the driver to exit.
func startRefresher(cfg config, be engine.Backend) (stop func()) {
	if cfg.refresh <= 0 {
		return func() {}
	}
	_, lanes := be.Shape()
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		ticker := time.NewTicker(cfg.refresh)
		defer ticker.Stop()
		for gen := uint64(1); ; gen++ {
			select {
			case <-done:
				return
			case <-ticker.C:
			}
			writes := refreshBatch(cfg.seed, gen, cfg.rows, lanes, cfg.refreshRows)
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
func openPagedStore(cfg config, lo, hi int) (*store.Store, func(), error) {
	path, rows, lanes, seed := cfg.tableFile, cfg.rows, cfg.lanes, cfg.seed
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
	pb, err := store.OpenPaged(path, store.PagedConfig{CacheBytes: cfg.pageCache})
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
