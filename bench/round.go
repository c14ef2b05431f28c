package main

import (
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"gpudpf/internal/pir"
	"gpudpf/internal/serving"
)

// roundConfig is one round's input: everything else follows from it.
type roundConfig struct {
	w      workload
	seed   uint64
	round  int
	timed  int // timed requests per connection
	traced bool
	dir    string // scratch directory for the table file and the trace
	// calib is how long each direct-call calibration loops (traced only).
	calib time.Duration
	// cap, when positive, ends the timed phase early once it has run this
	// long: a host slowed several-fold still finishes inside the driver's
	// time limit, and every metric is a rate or a ratio of what was sent.
	cap time.Duration
}

// phaseCounts reports one phase's requests the way every phase must:
// attempted, failed and refused.
type phaseCounts struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`  // error, or a reply of the wrong shape
	Refused   int `json:"refused"` // shed by admission control (also failed)
	Late      int `json:"late"`    // correct but over the latency limit
}

func (p *phaseCounts) add(o phaseCounts) {
	p.Attempted += o.Attempted
	p.Failed += o.Failed
	p.Refused += o.Refused
	p.Late += o.Late
}

// roundResult is what a round's process prints for its parent.
type roundResult struct {
	Workload string                 `json:"workload"`
	Round    int                    `json:"round"`
	Metrics  map[string]float64     `json:"metrics"`
	Phases   map[string]phaseCounts `json:"phases"`
	// Mismatches lists every sampled key whose reconstruction differed
	// from the seeded table; FirstError is the first request error seen.
	Mismatches []string `json:"mismatches,omitempty"`
	FirstError string   `json:"first_error,omitempty"`
	// TraceFile is where a traced round wrote its spans.
	TraceFile string `json:"trace_file,omitempty"`
}

// connLog is what one connection's loop saw in one phase.
type connLog struct {
	phaseCounts
	keys          int // keys answered with a correctly shaped reply
	readMs        []float64
	updateMs      []float64
	chainDepthMax int
	lastGen       int                // generation of the last update batch installed
	kept          map[int][][]uint32 // op index → answers kept for the reference
	firstErr      error
}

// runConn sends ops[from:to] one after another, waiting for each reply:
// a closed loop of one. Past a non-zero deadline it sends nothing more.
func runConn(s *stack, c int, ops []op, from, to int, keep map[int]bool, deadline time.Time) connLog {
	log := connLog{kept: map[int][][]uint32{}}
	fail := func(err error) {
		log.Failed++
		if errors.Is(err, serving.ErrOverloaded) {
			log.Refused++
		}
		if log.firstErr == nil {
			log.firstErr = err
		}
	}
	conn := s.conns[c]
	for i := from; i < to; i++ {
		o := &ops[i]
		start := time.Now()
		if !deadline.IsZero() && start.After(deadline) {
			break
		}
		log.Attempted++
		if o.isUpdate() {
			_, err := conn.UpdateBatch(o.writes)
			lat := time.Since(start)
			if err != nil {
				fail(fmt.Errorf("update batch %d: %w", o.gen, err))
				continue
			}
			log.lastGen = o.gen
			log.updateMs = append(log.updateMs, lat.Seconds()*1e3)
			if lat > s.w.limit {
				log.Late++
			}
			if s.store != nil {
				log.chainDepthMax = max(log.chainDepthMax, s.store.ChainDepth())
			}
			continue
		}
		answers, err := conn.Answer(o.keys0)
		lat := time.Since(start)
		if err == nil && len(answers) != len(o.keys0) {
			err = fmt.Errorf("%d answers for %d keys", len(answers), len(o.keys0))
		}
		for q := 0; err == nil && q < len(answers); q++ {
			if len(answers[q]) != s.w.lanes {
				err = fmt.Errorf("answer %d has %d lanes, table rows have %d", q, len(answers[q]), s.w.lanes)
			}
		}
		if err != nil {
			fail(fmt.Errorf("connection %d request %d: %w", c, i, err))
			continue
		}
		log.keys += len(answers)
		log.readMs = append(log.readMs, lat.Seconds()*1e3)
		if lat > s.w.limit {
			log.Late++
		}
		if keep[i] {
			log.kept[i] = answers
		}
	}
	return log
}

// runPhase drives both connections through their [from, to) op ranges.
// Connection 1 starts stagger after connection 0, so the two requests in
// flight alternate through the batcher instead of arriving together and
// having their keys interleaved into shared batches; either way each waits
// for two batches, but alternating is the steady state a closed loop falls
// into and the one whose queue wait the trace should show.
func runPhase(s *stack, p *plan, from, to [2]int, stagger time.Duration, keep [2]map[int]bool, deadline time.Time) [2]connLog {
	var logs [2]connLog
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			if c == 1 {
				time.Sleep(stagger)
			}
			logs[c] = runConn(s, c, p.conns[c], from[c], to[c], keep[c], deadline)
		}(c)
	}
	wg.Wait()
	return logs
}

// pickSamples chooses which timed reads the reference re-derives: evenly
// spaced over the phase, the first and last request included, enough
// requests for minSampleKeys keys. On an updating workload only
// connection 0 is eligible: it is the only writer and waits for each
// reply, so the table generation each of its reads saw is known exactly.
func pickSamples(p *plan, from, to [2]int) [2]map[int]bool {
	type ref struct{ c, i int }
	var reads []ref
	for c := 0; c < 2; c++ {
		if c == 1 && p.w.updateEvery > 0 {
			continue
		}
		for i := from[c]; i < to[c]; i++ {
			if !p.conns[c][i].isUpdate() {
				reads = append(reads, ref{c, i})
			}
		}
	}
	keep := [2]map[int]bool{{}, {}}
	n := max(2, (minSampleKeys+p.w.k-1)/p.w.k)
	n = min(n, len(reads))
	for j := 0; j < n; j++ {
		r := reads[0]
		if n > 1 {
			r = reads[j*(len(reads)-1)/(n-1)]
		}
		keep[r.c][r.i] = true
	}
	return keep
}

// preRoll answers 64 keys on a tiny in-process table before anything is
// timed, so paging in the binary's hot code is not charged to set-up.
func preRoll() error {
	const rows, lanes = 1 << 8, 4
	tab, err := pir.NewTable(rows, lanes)
	if err != nil {
		return err
	}
	for r := 0; r < rows; r++ {
		fillRow(0, r, 0, tab.Row(r))
	}
	var srv [2]*pir.Server
	for party := range srv {
		if srv[party], err = pir.NewServer(party, tab); err != nil {
			return err
		}
	}
	client, err := pir.NewClient(prgName, rows, pcgReader{pcg(0, 0)})
	if err != nil {
		return err
	}
	ts := pir.TwoServer{Client: client, E0: pir.InProcess{Server: srv[0]}, E1: pir.InProcess{Server: srv[1]}}
	idx := make([]uint64, 64)
	for i := range idx {
		idx[i] = uint64(i * 3 % rows)
	}
	got, _, err := ts.Fetch(idx)
	if err != nil {
		return err
	}
	for i, r := range idx {
		for l, v := range tab.Row(int(r)) {
			if got[i][l] != v {
				return fmt.Errorf("pre-roll: row %d reconstructed wrong", r)
			}
		}
	}
	return nil
}

// runRound is one round of one workload in this process: pre-roll, key
// generation, set-up and warm-up, the timed phase, read-backs and the
// reference check.
func runRound(cfg roundConfig) (*roundResult, error) {
	w := cfg.w
	if err := preRoll(); err != nil {
		return nil, err
	}
	keygenStart := time.Now()
	p, err := makePlan(w, cfg.seed, cfg.round, cfg.timed)
	if err != nil {
		return nil, err
	}
	keygen := time.Since(keygenStart)

	var t *tracer
	if cfg.traced {
		t = newTracer()
	}
	s, err := startStack(w, cfg.seed, cfg.dir, t)
	if err != nil {
		return nil, fmt.Errorf("starting the %s stack: %w", w.name, err)
	}
	defer s.close()

	m := map[string]float64{}
	if cfg.traced {
		calib, err := s.calibrate(p, cfg.calib)
		if err != nil {
			return nil, err
		}
		for k, v := range calib {
			m[k] = v
		}
	}

	// Warm-up: the first warmShare of each connection's ops.
	var zero, warmEnd, timedEnd, postEnd [2]int
	for c := range p.conns {
		warmEnd[c] = p.warm[c]
		timedEnd[c] = p.warm[c] + cfg.timed
		postEnd[c] = len(p.conns[c])
	}
	warmStart := time.Now()
	steal0 := readSteal()
	warmLogs := runPhase(s, p, zero, warmEnd, 0, [2]map[int]bool{}, time.Time{})
	warmup := time.Since(warmStart)
	stagger := time.Duration(median(slices.Concat(warmLogs[0].readMs, warmLogs[1].readMs)) / 4 * float64(time.Millisecond))

	// Timed phase.
	keep := pickSamples(p, warmEnd, timedEnd)
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	c0, cpu0 := s.counts(), cpuSeconds()
	if t != nil {
		t.on.Store(true)
	}
	start := time.Now()
	var deadline time.Time
	if cfg.cap > 0 {
		deadline = start.Add(cfg.cap)
	}
	logs := runPhase(s, p, warmEnd, timedEnd, stagger, keep, deadline)
	wall := time.Since(start).Seconds()
	steal1 := readSteal()
	if t != nil {
		t.on.Store(false)
	}
	cpu := cpuSeconds() - cpu0
	c1 := s.counts()
	runtime.ReadMemStats(&mem1)

	// Off the clock: read back the last update batch, then check. The
	// read-backs see whatever generation was really installed last (a
	// capped timed phase may not have sent every planned update).
	postKeep := [2]map[int]bool{{}, {}}
	for i := timedEnd[0]; i < postEnd[0]; i++ {
		postKeep[0][i] = true
		p.conns[0][i].asOf = max(warmLogs[0].lastGen, logs[0].lastGen)
	}
	postLogs := runPhase(s, p, timedEnd, postEnd, 0, postKeep, time.Time{})
	runtime.GC()
	var mem2 runtime.MemStats
	runtime.ReadMemStats(&mem2)

	var samples []sample
	for c := range p.conns {
		for _, kept := range []map[int][][]uint32{logs[c].kept, postLogs[c].kept} {
			for i, answers := range kept {
				o := &p.conns[c][i]
				for q := range answers {
					samples = append(samples, sample{row: o.rows[q], key1: o.keys1[q], share0: answers[q], asOf: o.asOf})
				}
			}
		}
	}
	rowAt := func(row, gen int, dst []uint32) { fillRow(cfg.seed, row, gen, dst) }
	mismatches, err := checkSamples(w.rows, w.lanes, rowAt, p.genAt, samples)
	if err != nil {
		return nil, err
	}

	res := &roundResult{
		Workload: w.name, Round: cfg.round,
		Metrics: m, Phases: map[string]phaseCounts{},
		Mismatches: mismatches,
	}
	var timed, warm, post phaseCounts
	var readMs, updateMs []float64
	keys, chainDepth := 0, 0
	for c := range logs {
		warm.add(warmLogs[c].phaseCounts)
		timed.add(logs[c].phaseCounts)
		post.add(postLogs[c].phaseCounts)
		readMs = append(readMs, logs[c].readMs...)
		updateMs = append(updateMs, logs[c].updateMs...)
		keys += logs[c].keys
		chainDepth = max(chainDepth, logs[c].chainDepthMax)
		for _, l := range []connLog{warmLogs[c], logs[c], postLogs[c]} {
			if l.firstErr != nil && res.FirstError == "" {
				res.FirstError = l.firstErr.Error()
			}
		}
	}
	res.Phases["warmup"], res.Phases["timed"], res.Phases["readback"] = warm, timed, post
	if keys == 0 {
		return res, fmt.Errorf("%s: no request of the timed phase was answered: %s", w.name, res.FirstError)
	}
	fk := float64(keys)
	d := func(a, b int64) float64 { return float64(b - a) }

	// End to end.
	setup := s.setup.tableBuild + s.setup.fileWrite + s.setup.stackStart + warmup
	m["setup_s"] = setup.Seconds()
	m["throughput_keys_per_s"] = fk / wall
	m["latency_p50_ms"] = percentile(readMs, 0.50)
	m["cpu_ms_per_key"] = cpu * 1e3 / fk
	m["wire_bytes_per_key"] = (d(c0.wireIn, c1.wireIn) + d(c0.wireOut, c1.wireOut)) / fk
	m["ok_ratio"] = float64(timed.Attempted-timed.Failed-timed.Late) / float64(timed.Attempted)
	if len(mismatches) > 0 {
		m["ok_ratio"] = 0
	}

	// Per layer: counts at the seams, over the timed phase.
	engineKeys := d(c0.batchKeys, c1.batchKeys)
	m["dpf.gen_us_per_key"] = keygen.Seconds() * 1e6 / float64(p.keys)
	m["dpf.key_bytes"] = float64(p.keyLen)
	m["dpf.prf_blocks_per_key"] = d(c0.prfBlocks, c1.prfBlocks) / engineKeys
	m["strategy.table_read_bytes_per_key"] = d(c0.readBytes, c1.readBytes) / engineKeys
	m["store.page_loads_per_key"] = d(c0.pageLoads, c1.pageLoads) / fk
	m["store.page_hit_ratio"] = 0
	if touched := d(c0.pageLoads, c1.pageLoads) + d(c0.pageHits, c1.pageHits); touched > 0 {
		m["store.page_hit_ratio"] = d(c0.pageHits, c1.pageHits) / touched
	}
	m["store.update_ms_p50"] = percentile(updateMs, 0.50)
	m["store.chain_depth_max"] = float64(chainDepth)
	m["store.epochs_installed"] = float64(c1.epoch - c0.epoch)
	m["engine.batch_keys_mean"] = engineKeys / d(c0.batches, c1.batches)
	m["engine.epoch_retries"] = float64(c1.epochRetries - c0.epochRetries)
	m["shardnet.wire_bytes_per_key"] = d(c0.nodeWire, c1.nodeWire) / fk
	m["pir.wire_up_bytes_per_key"] = d(c0.wireIn, c1.wireIn) / fk
	m["pir.wire_down_bytes_per_key"] = d(c0.wireOut, c1.wireOut) / fk
	m["serving.accepted"] = float64(c1.accepted - c0.accepted)
	m["serving.shed"] = float64(c1.shed - c0.shed)
	m["proc.steal_ratio"] = steal1.ratioSince(steal0)
	m["proc.peak_rss_mb"] = peakRSSMB()
	m["proc.live_heap_mb"] = float64(mem2.HeapAlloc) / (1 << 20)
	m["proc.mallocs_per_key"] = float64(mem1.Mallocs-mem0.Mallocs) / fk
	m["proc.alloc_bytes_per_key"] = float64(mem1.TotalAlloc-mem0.TotalAlloc) / fk
	m["proc.gc_pause_ms"] = float64(mem1.PauseTotalNs-mem0.PauseTotalNs) / 1e6
	m["setup.table_build_s"] = s.setup.tableBuild.Seconds()
	m["setup.file_write_s"] = s.setup.fileWrite.Seconds()
	m["setup.stack_start_s"] = s.setup.stackStart.Seconds()
	m["setup.keygen_s"] = keygen.Seconds()
	m["setup.warmup_s"] = warmup.Seconds()
	m["client.latency_p90_ms"] = percentile(readMs, 0.90)
	m["client.latency_p99_ms"] = percentile(readMs, 0.99)
	m["client.latency_samples"] = float64(len(readMs))
	m["client.requests_attempted"] = float64(timed.Attempted)
	m["client.requests_failed"] = float64(timed.Failed)
	m["client.requests_refused"] = float64(timed.Refused)
	m["client.verified_keys"] = float64(len(samples))

	if cfg.traced {
		// The direct-call calibrations give the ceilings the counts are
		// held against: PRF blocks per core-second of pure expansion, and
		// table bytes per core-second of pure accumulate.
		if us := m["dpf.expand_us_per_key"]; us > 0 {
			m["dpf.prf_blocks_per_s_core"] = m["dpf.prf_blocks_per_key"] / (us * 1e-6)
		}
		m["strategy.stream_gb_per_s"] = 0
		if us := m["strategy.accumulate_us_per_key"]; us > 0 {
			m["strategy.stream_gb_per_s"] = m["strategy.table_read_bytes_per_key"] / (us * 1e-6) / 1e9
		}
		t.mu.Lock()
		spans := t.spans
		t.mu.Unlock()
		for k, v := range analyze(spans) {
			m[k] = v
		}
		res.TraceFile = filepath.Join(cfg.dir, "trace.json")
		if err := writeTrace(res.TraceFile, w.name, spans); err != nil {
			return nil, err
		}
	}
	for k, v := range m {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("%s: metric %s is %v", w.name, k, v)
		}
	}
	return res, nil
}
