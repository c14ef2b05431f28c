package main

import (
	"fmt"
	"net"
	"path/filepath"
	"sync/atomic"
	"time"

	"gpudpf/internal/dpf"
	"gpudpf/internal/engine"
	"gpudpf/internal/gpu"
	"gpudpf/internal/pir"
	"gpudpf/internal/serving"
	"gpudpf/internal/shardnet"
	"gpudpf/internal/store"
	"gpudpf/internal/strategy"
)

// countingListener counts the bytes that cross every connection it
// accepts: the PIR communication cost as the server's socket sees it.
type countingListener struct {
	net.Listener
	in, out atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{c, l}, nil
}

type countingConn struct {
	net.Conn
	l *countingListener
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.l.in.Add(int64(n))
	return n, err
}

// Write counts before it writes: the peer can have read the reply and
// ended the phase before Write returns, and the phase's last reply must
// not fall outside its counter snapshot.
func (c countingConn) Write(p []byte) (int, error) {
	c.l.out.Add(int64(len(p)))
	n, err := c.Conn.Write(p)
	c.l.out.Add(int64(n - len(p)))
	return n, err
}

func listenLoopback() (*countingListener, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	return &countingListener{Listener: l}, nil
}

// stack is one workload's serving stack, built in-process from the
// layers' public constructors, plus the two client connections that load
// it. Everything the bench reads counters from is kept here.
type stack struct {
	w       workload
	front   *serving.Front
	backend *countedBackend
	// replicas do the compute: one, or one per shard node.
	replicas []*engine.Replica
	store    *store.Store // the single replica's store (nil on a cluster)
	paged    *store.PagedBacking
	clientLn *countingListener
	nodeLns  []*countingListener
	conns    []endpoint

	setup   setupTimes
	closers []func()
	served  []chan error // results of the Serve goroutines
}

// setupTimes splits setup_s by what the time went to.
type setupTimes struct {
	tableBuild, fileWrite, stackStart time.Duration
}

func (s *stack) close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
	for _, ch := range s.served {
		<-ch
	}
}

// buildTable fills a fresh table with the seed's generation-0 content.
func buildTable(w workload, seed uint64) (*pir.Table, error) {
	tab, err := pir.NewTable(w.rows, w.lanes)
	if err != nil {
		return nil, err
	}
	for r := 0; r < w.rows; r++ {
		fillRow(seed, r, 0, tab.Row(r))
	}
	return tab, nil
}

// newReplica builds one party-0 replica over tab or st. In a traced round
// the replica is built twice: once with defaults, to learn the strategy the
// engine would run (already bound to its worker budget), and again around
// that same strategy inside a span-recording wrapper.
func newReplica(tab *pir.Table, st *store.Store, t *tracer, in *scope) (*engine.Replica, error) {
	build := func(opts ...pir.ServerOption) (*engine.Replica, error) {
		if st != nil {
			srv, err := pir.NewServerOverStore(0, st, opts...)
			if err != nil {
				return nil, err
			}
			return srv.Engine(), nil
		}
		srv, err := pir.NewServer(0, tab, opts...)
		if err != nil {
			return nil, err
		}
		return srv.Engine(), nil
	}
	rep, err := build()
	if err != nil || t == nil {
		return rep, err
	}
	return build(pir.WithStrategy(tracedStrategy{Strategy: rep.Strategy(), t: t, in: in}))
}

// startStack builds the workload's stack and dials the two connections.
// dir receives the table file of a paged workload. t is nil in an
// untraced round.
func startStack(w workload, seed uint64, dir string, t *tracer) (*stack, error) {
	s := &stack{w: w}
	ok := false
	defer func() {
		if !ok {
			s.close()
		}
	}()

	engineScope := &scope{}
	var be engine.Backend
	switch {
	case w.nodes > 0:
		start := time.Now()
		tabs := make([]*pir.Table, w.nodes)
		for i := range tabs {
			var err error
			if tabs[i], err = buildTable(w, seed); err != nil {
				return nil, err
			}
		}
		s.setup.tableBuild = time.Since(start)
		start = time.Now()
		shards := make([]engine.ClusterShard, w.nodes)
		for i := range shards {
			nodeScope := &scope{}
			rep, err := newReplica(tabs[i], nil, t, nodeScope)
			if err != nil {
				return nil, err
			}
			s.replicas = append(s.replicas, rep)
			var nodeBackend engine.RangeBackend = rep
			if t != nil {
				nodeBackend = tracedNode{Replica: rep, t: t, in: nodeScope, node: i}
			}
			lo, hi := engine.ShardRange(w.rows, i, w.nodes)
			node, err := shardnet.NewServer(nodeBackend, shardnet.ServerConfig{RowLo: lo, RowHi: hi})
			if err != nil {
				return nil, err
			}
			ln, err := listenLoopback()
			if err != nil {
				return nil, err
			}
			s.nodeLns = append(s.nodeLns, ln)
			s.serve(func() error { return node.Serve(ln) })
			s.closers = append(s.closers, func() { node.Close() })
			addr := ln.Addr().String()
			cl, err := shardnet.Dial(addr, shardnet.Options{PRG: prgName, Party: 0})
			if err != nil {
				return nil, err
			}
			shards[i] = engine.ClusterShard{Backend: cl, Name: addr}
			if t != nil {
				shards[i].Backend = tracedShard{Client: cl, t: t, in: engineScope, node: i}
			}
			s.closers = append(s.closers, func() { cl.Close() })
		}
		cluster, err := engine.NewCluster(shards...)
		if err != nil {
			return nil, err
		}
		be = cluster
		s.setup.stackStart = time.Since(start)

	case w.cacheBytes > 0:
		start := time.Now()
		path := filepath.Join(dir, "table.gpdf")
		err := store.WriteTableFileRows(path, w.rows, w.lanes, func(r int, dst []uint32) { fillRow(seed, r, 0, dst) })
		if err != nil {
			return nil, err
		}
		s.setup.fileWrite = time.Since(start)
		start = time.Now()
		pb, err := store.OpenPaged(path, store.PagedConfig{CacheBytes: w.cacheBytes})
		if err != nil {
			return nil, err
		}
		s.paged = pb
		s.closers = append(s.closers, func() { pb.Close() })
		if s.store, err = store.NewPaged(pb); err != nil {
			return nil, err
		}
		rep, err := newReplica(nil, s.store, t, engineScope)
		if err != nil {
			return nil, err
		}
		s.replicas, be = []*engine.Replica{rep}, rep
		s.setup.stackStart = time.Since(start)

	default:
		start := time.Now()
		tab, err := buildTable(w, seed)
		if err != nil {
			return nil, err
		}
		s.setup.tableBuild = time.Since(start)
		start = time.Now()
		rep, err := newReplica(tab, nil, t, engineScope)
		if err != nil {
			return nil, err
		}
		s.replicas, be, s.store = []*engine.Replica{rep}, rep, rep.Store()
		s.setup.stackStart = time.Since(start)
	}

	start := time.Now()
	s.backend = &countedBackend{Backend: be, t: t, in: engineScope}
	// MaxBatch = K: every request fills whole batches, so batches form by
	// size alone. MaxDelay is set far above any request's latency limit so
	// the deadline timer never forms one: with both cores busy computing,
	// a request's K submit goroutines can wait longer than a production
	// 2 ms deadline for a processor, and a timer-cut batch would make the
	// batch size, and every count per key, depend on scheduling luck. No
	// queue bound, no SLO retuner.
	front, err := serving.NewFront(serving.FrontConfig{
		Policy: serving.Policy{MaxBatch: w.k, MaxDelay: time.Second},
	}, s.backend)
	if err != nil {
		return nil, err
	}
	s.front = front
	s.closers = append(s.closers, front.Close)
	if s.clientLn, err = listenLoopback(); err != nil {
		return nil, err
	}
	var answerer pir.Answerer = front
	if t != nil {
		answerer = tracedFront{f: front, t: t}
	}
	ln := s.clientLn
	s.serve(func() error { return pir.Serve(ln, answerer) })
	s.closers = append(s.closers, func() { ln.Close() })
	for c := 0; c < 2; c++ {
		r, err := pir.Dial(ln.Addr().String())
		if err != nil {
			return nil, err
		}
		s.closers = append(s.closers, func() { r.Close() })
		if t != nil {
			s.conns = append(s.conns, tracedRemote{r: r, t: t})
		} else {
			s.conns = append(s.conns, r)
		}
	}
	s.setup.stackStart += time.Since(start)
	ok = true
	return s, nil
}

// serve runs a blocking accept loop until its listener closes; close()
// waits for it.
func (s *stack) serve(loop func() error) {
	ch := make(chan error, 1)
	s.served = append(s.served, ch)
	go func() { ch <- loop() }()
}

// counts is a snapshot of every cumulative counter the stack exposes; the
// timed phase is the difference of two.
type counts struct {
	wireIn, wireOut, nodeWire int64
	prfBlocks, readBytes      int64
	batches, batchKeys        int64
	pageLoads, pageHits       int64
	epoch, epochRetries       uint64
	accepted, shed            uint64
}

func (s *stack) counts() counts {
	c := counts{
		wireIn:    s.clientLn.in.Load(),
		wireOut:   s.clientLn.out.Load(),
		batches:   s.backend.batches.Load(),
		batchKeys: s.backend.keys.Load(),
	}
	for _, ln := range s.nodeLns {
		c.nodeWire += ln.in.Load() + ln.out.Load()
	}
	for _, r := range s.replicas {
		st := r.Counters()
		c.prfBlocks += st.PRFBlocks
		c.readBytes += st.ReadBytes
	}
	if s.paged != nil {
		c.pageLoads, c.pageHits = s.paged.Loads(), s.paged.Hits()
	}
	if s.store != nil {
		c.epoch = s.store.Epoch()
	}
	stats := s.front.ServingStats()
	c.accepted, c.shed, c.epochRetries = stats.Accepted, stats.Shed, stats.EpochRetries
	return c
}

// calibrate times the layers the request path hides inside one call, by
// calling them directly on this workload's shape from one goroutine before
// any load starts: one key's full GGM expansion, one K-key tile through the
// replica's own strategy, and one pass over the table's chunks with no
// compute. CPU time is the process's, which is only this goroutine's work
// plus whatever the strategy fans out itself.
func (s *stack) calibrate(p *plan, minTime time.Duration) (map[string]float64, error) {
	rep := s.replicas[0]
	prg, err := dpf.NewPRG(prgName)
	if err != nil {
		return nil, err
	}
	var keys []*dpf.Key
	for _, o := range p.conns[1] {
		if len(keys) == s.w.k {
			break
		}
		for _, raw := range o.keys0 {
			k := new(dpf.Key)
			if err := k.UnmarshalBinary(raw); err != nil {
				return nil, err
			}
			keys = append(keys, k)
		}
	}
	keys = keys[:s.w.k]
	m := map[string]float64{}

	leaves := make([]uint32, keys[0].Domain())
	var fs dpf.FrontierScratch
	expand := timeLoop(minTime, func(i int) error {
		dpf.EvalFullInto(prg, keys[i%len(keys)], leaves, &fs)
		return nil
	})
	m["dpf.expand_us_per_key"] = expand.cpuPerOp * 1e6

	snap := rep.Store().Acquire()
	defer snap.Release()
	lo, hi := 0, s.w.rows
	if s.w.nodes > 0 {
		lo, hi = engine.ShardRange(s.w.rows, 0, s.w.nodes)
	}
	dst := strategy.NewAnswers(len(keys), s.w.lanes)
	var ctr gpu.Counters
	tile := timeLoop(minTime, func(int) error {
		for _, d := range dst {
			clear(d)
		}
		return rep.Strategy().RunRangeInto(prg, keys, snap, lo, hi, &ctr, dst)
	})
	if tile.err != nil {
		return nil, fmt.Errorf("calibration tile: %w", tile.err)
	}
	// A node's tile covers 1/nodes of the rows; a key costs one tile on
	// every node.
	tileUS := tile.cpuPerOp * 1e6 / float64(len(keys))
	if s.w.nodes > 0 {
		tileUS *= float64(s.w.nodes)
	}
	m["strategy.tile_us_per_key"] = tileUS
	m["strategy.accumulate_us_per_key"] = tileUS - m["dpf.expand_us_per_key"]

	pass := timeLoop(minTime, func(int) error {
		return snap.Chunks(0, s.w.rows, func(c strategy.Chunk) error {
			sink += c.Data[0]
			return nil
		})
	})
	if pass.err != nil {
		return nil, fmt.Errorf("calibration chunk pass: %w", pass.err)
	}
	m["store.chunks_pass_ms"] = pass.wallPerOp * 1e3
	return m, nil
}

var sink uint32
