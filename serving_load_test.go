// Serving-layer load tests over real TCP: overload sheds with a named
// error while accepted-request p99 stays bounded, SIGTERM drains cleanly
// under active load, and the epoch-retry counter the load harness reports
// matches the cluster's own ErrMixedEpoch re-fan count. These are the
// operational properties behind the open-loop harness (cmd/pirload): the
// same loadgen library drives them here against in-process servers so CI
// measures them deterministically.
package gpudpf_test

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"os/exec"
	"regexp"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"gpudpf/internal/engine"
	"gpudpf/internal/loadgen"
	"gpudpf/internal/pir"
	"gpudpf/internal/serving"
)

// loadTable builds a filled rows×lanes table.
func loadTable(t *testing.T, rows, lanes int, seed int64) *pir.Table {
	t.Helper()
	tab, err := pir.NewTable(rows, lanes)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := range tab.Data {
		tab.Data[i] = rng.Uint32()
	}
	return tab
}

// serveFront puts a serving.Front over the backend behind a real TCP
// listener speaking the client protocol, and dials a pool of conns
// against it.
func serveFront(t *testing.T, be engine.Backend, cfg serving.FrontConfig, conns int) (*serving.Front, []*pir.Remote) {
	t.Helper()
	f, err := serving.NewFront(cfg, be)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go pir.Serve(l, f)
	t.Cleanup(func() { l.Close(); f.Close() })
	remotes := make([]*pir.Remote, conns)
	for i := range remotes {
		r, err := pir.Dial(l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { r.Close() })
		remotes[i] = r
	}
	return f, remotes
}

func asTargets(remotes []*pir.Remote) []loadgen.Target {
	targets := make([]loadgen.Target, len(remotes))
	for i, r := range remotes {
		targets[i] = r
	}
	return targets
}

// slowBackend gives the device a known capacity: every batch costs an
// extra fixed delay, one batch at a time whatever the front door's
// in-flight width on this host, so MaxBatch/delay bounds sustainable QPS
// exactly and the test can drive a precise 2× overload.
type slowBackend struct {
	*engine.Replica
	delay time.Duration
	mu    sync.Mutex
}

func (s *slowBackend) Answer(ctx context.Context, keys [][]byte) ([][]uint32, error) {
	s.mu.Lock()
	time.Sleep(s.delay)
	s.mu.Unlock()
	return s.Replica.Answer(ctx, keys)
}

// gatedBackend holds every batch until released and counts the keys that
// reached it.
type gatedBackend struct {
	*engine.Replica
	entered, release chan struct{}
	keys             atomic.Int64
}

func (g *gatedBackend) Answer(ctx context.Context, keys [][]byte) ([][]uint32, error) {
	g.keys.Add(int64(len(keys)))
	g.entered <- struct{}{}
	<-g.release
	return g.Replica.Answer(ctx, keys)
}

// TestPartlyFittingRequestShedWholeTCP: a 4-key request that meets the
// admission bound with room for only 2 of its keys is refused whole — the
// wire carries the named overload error, none of its keys is computed, and
// the stats op counts 4 accepted (the request in service) and 4 shed.
func TestPartlyFittingRequestShedWholeTCP(t *testing.T) {
	const rows, lanes, k = 512, 4, 4
	rep, err := pir.NewReplica(0, loadTable(t, rows, lanes, 81))
	if err != nil {
		t.Fatal(err)
	}
	gate := &gatedBackend{Replica: rep, entered: make(chan struct{}, 1), release: make(chan struct{})}
	_, remotes := serveFront(t, gate, serving.FrontConfig{
		Policy: serving.Policy{MaxBatch: k, MaxDelay: time.Hour, MaxQueue: k + 2},
	}, 2)
	cl, err := pir.NewClient("aes128", rows, rand.New(rand.NewSource(82)))
	if err != nil {
		t.Fatal(err)
	}
	keys := make([][]byte, k)
	for i := range keys {
		if keys[i], _, err = cl.Query(uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	first := make(chan error, 1)
	go func() { _, err := remotes[0].Answer(keys); first <- err }()
	<-gate.entered // the first request is in service
	if _, err := remotes[1].Answer(keys); !errors.Is(err, serving.ErrOverloaded) {
		t.Fatalf("request past the bound over TCP: %v, want serving.ErrOverloaded", err)
	}
	close(gate.release)
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	stats, err := remotes[1].Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Accepted != k || stats.Shed != k || gate.keys.Load() != k {
		t.Fatalf("accepted %d shed %d, backend computed %d keys; want %d / %d / %d", stats.Accepted, stats.Shed, gate.keys.Load(), k, k, k)
	}
}

// TestOverloadShedBoundedP99TCP drives 2× a known saturation rate over
// real TCP and asserts graceful degradation: the excess is refused with
// the NAMED overload error (serving.ErrOverloaded round-trips the wire as
// a code, so loadgen classifies sheds via errors.Is — a timeout or a
// string-matched fault would land in Errors and fail the test), while
// accepted requests keep being served. The server's own admission
// counters must agree exactly with what the client observed. Accepted-
// request p99 (~100-230ms with admission control on an idle host) is
// logged, not asserted: it is a client-side wall-clock reading that a
// small or loaded host stretches past any fixed bound (ROADMAP item 1).
func TestOverloadShedBoundedP99TCP(t *testing.T) {
	const rows, lanes = 512, 4
	rep, err := pir.NewReplica(0, loadTable(t, rows, lanes, 21))
	if err != nil {
		t.Fatal(err)
	}
	// Capacity: batches of ≤8 keys, ≥10ms each → ≤800 QPS sustained. The
	// geometry matters: MaxQueue must exceed MaxBatch or the queue is
	// pinned full for a whole batch service time and the device starves,
	// and the conn pool must be wide enough that accepted requests (which
	// hold a conn for their full queue+service time) don't throttle the
	// open-loop drive below the admission bound — otherwise the client
	// pool, not the server, is what's measured.
	slow := &slowBackend{Replica: rep, delay: 10 * time.Millisecond}
	_, remotes := serveFront(t, slow, serving.FrontConfig{
		Policy: serving.Policy{MaxBatch: 8, MaxDelay: time.Millisecond, MaxQueue: 16},
	}, 64)

	cl, err := pir.NewClient("aes128", rows, rand.New(rand.NewSource(22)))
	if err != nil {
		t.Fatal(err)
	}
	key, _, err := cl.Query(3)
	if err != nil {
		t.Fatal(err)
	}

	cfg := loadgen.Config{
		Seed: 23, Clients: 10_000, Rows: rows, ZipfS: 1.2,
		QPS: 1600, Duration: 2 * time.Second,
	}
	ops, err := loadgen.Schedule(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := loadgen.Run(loadgen.RunConfig{
		Targets:  asTargets(remotes),
		Schedule: ops,
		KeyFor:   func(uint64) []byte { return key },
	})
	if err != nil {
		t.Fatal(err)
	}

	if rep2.Counts.Errors > 0 {
		t.Fatalf("%d requests failed with non-shed errors — sheds must be the named overload error, nothing else may fail", rep2.Counts.Errors)
	}
	if rep2.Counts.Shed == 0 {
		t.Fatal("2× saturation shed nothing; admission control is not engaging")
	}
	if rep2.Counts.OK == 0 {
		t.Fatal("overload starved every request; shedding must protect accepted traffic, not replace it")
	}
	stats, err := remotes[0].Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Shed != rep2.Counts.Shed {
		t.Fatalf("server counted %d sheds, harness observed %d", stats.Shed, rep2.Counts.Shed)
	}
	if stats.Accepted != rep2.Counts.OK {
		t.Fatalf("server counted %d accepted, harness completed %d", stats.Accepted, rep2.Counts.OK)
	}
	t.Logf("2× overload: ok=%d shed=%d p50=%.1fms p99=%.1fms achieved=%.0f/%.0f qps",
		rep2.Counts.OK, rep2.Counts.Shed, rep2.Latency.P50, rep2.Latency.P99,
		rep2.AchievedQPS, rep2.OfferedQPS)
}

// TestAdaptiveFrontP50WithinStaticTCP: at moderate, non-saturating load
// the adaptive front's accepted-request p50 must stay within 2× the
// static policy's p50 (plus CI-noise slack). This is the guard on the
// arrival-gap MaxDelay cap: an adaptive front whose tuned deadline spends
// the whole SLO budget parks lightly-loaded batches for the full deadline
// (the 176ms-p50 regression at 500 QPS under a small conn pool), while a
// capped deadline tracks the batch's actual fill time and keeps p50 in
// the static policy's neighborhood. Both fronts are driven over real TCP
// with the same open-loop schedule against the same device capacity.
func TestAdaptiveFrontP50WithinStaticTCP(t *testing.T) {
	const rows, lanes = 512, 4
	cl, err := pir.NewClient("aes128", rows, rand.New(rand.NewSource(62)))
	if err != nil {
		t.Fatal(err)
	}
	key, _, err := cl.Query(5)
	if err != nil {
		t.Fatal(err)
	}
	static := serving.Policy{MaxBatch: 16, MaxDelay: 2 * time.Millisecond, MaxQueue: 256}
	drive := func(cfg serving.FrontConfig) (*serving.Front, loadgen.Report) {
		rep, err := pir.NewReplica(0, loadTable(t, rows, lanes, 61))
		if err != nil {
			t.Fatal(err)
		}
		// Geometry: 3ms per batch at 200 QPS keeps the static front (which
		// forms ~1-key batches inside its 2ms deadline) around 60% busy —
		// moderate load, NOT saturation, so p50 measures batch-formation
		// waiting rather than a diverging queue, even on a single-core CI
		// shard where client, server, and harness share the clock.
		slow := &slowBackend{Replica: rep, delay: 3 * time.Millisecond}
		front, remotes := serveFront(t, slow, cfg, 32)
		ops, err := loadgen.Schedule(loadgen.Config{
			Seed: 63, Clients: 1_000, Rows: rows, ZipfS: 1.2,
			QPS: 200, Duration: 2500 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		r, err := loadgen.Run(loadgen.RunConfig{
			Targets:  asTargets(remotes),
			Schedule: ops,
			KeyFor:   func(uint64) []byte { return key },
		})
		if err != nil {
			t.Fatal(err)
		}
		if r.Counts.Errors > 0 || r.Counts.Shed > 0 {
			t.Fatalf("non-saturating load errored/shed (%d/%d); the comparison needs clean accepted traffic",
				r.Counts.Errors, r.Counts.Shed)
		}
		return front, r
	}

	_, stRep := drive(serving.FrontConfig{Policy: static})
	adFront, adRep := drive(serving.FrontConfig{
		Policy:      static,
		SLO:         200 * time.Millisecond,
		MaxBatchCap: 64,
		Retune:      100 * time.Millisecond,
	})
	if adFront.Retunes() == 0 {
		t.Fatal("adaptive front never retuned; the run did not exercise the adaptive path")
	}
	// 2× plus 5ms absolute slack: the static p50 is single-digit ms, and
	// timer granularity on a loaded CI shard is a real fraction of that.
	if limit := 2*stRep.Latency.P50 + 5.0; adRep.Latency.P50 > limit {
		t.Fatalf("adaptive p50 %.1fms exceeds %.1fms (2× static p50 %.1fms + slack); the tuned policy parks batches past their fill time",
			adRep.Latency.P50, limit, stRep.Latency.P50)
	}
	t.Logf("moderate load: static p50=%.1fms adaptive p50=%.1fms (%d retunes)",
		stRep.Latency.P50, adRep.Latency.P50, adFront.Retunes())
}

// TestShutdownDrainUnderLoadTCP extends the graceful-shutdown path with a
// load-bearing check: a real pirserver process under active traffic gets
// SIGTERM, must drain its in-flight batches, log "shutdown complete", and
// exit 0 — not hang, not crash, not leave the drain half done.
func TestShutdownDrainUnderLoadTCP(t *testing.T) {
	bin := t.TempDir() + "/pirserver"
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/pirserver").CombinedOutput(); err != nil {
		t.Fatalf("building pirserver: %v\n%s", err, out)
	}
	const rows = 4096
	srv := exec.Command(bin, "-party", "0", "-addr", "127.0.0.1:0",
		"-rows", "4096", "-lanes", "8", "-batch", "16", "-maxqueue", "256")
	stderr, err := srv.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Process.Kill()

	// The server picks its port; read it off the startup log line.
	addrCh := make(chan string, 1)
	var logMu sync.Mutex
	var logText []byte
	logDone := make(chan struct{}) // closed at the log's EOF
	go func() {
		defer close(logDone)
		buf := make([]byte, 4096)
		addrRe := regexp.MustCompile(`serving .* on (127\.0\.0\.1:\d+)`)
		sent := false
		for {
			n, err := stderr.Read(buf)
			if n > 0 {
				logMu.Lock()
				logText = append(logText, buf[:n]...)
				if !sent {
					if m := addrRe.FindSubmatch(logText); m != nil {
						sent = true
						addrCh <- string(m[1])
					}
				}
				logMu.Unlock()
			}
			if err != nil {
				return
			}
		}
	}()
	var addr string
	select {
	case addr = <-addrCh:
	case <-time.After(15 * time.Second):
		t.Fatal("pirserver did not log its listen address")
	}

	cl, err := pir.NewClient("aes128", rows, rand.New(rand.NewSource(31)))
	if err != nil {
		t.Fatal(err)
	}
	key, _, err := cl.Query(7)
	if err != nil {
		t.Fatal(err)
	}
	// Active load: closed-loop senders that run until the shutdown cuts
	// their connections.
	var served atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		r, err := pir.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		wg.Add(1)
		go func(r *pir.Remote) {
			defer wg.Done()
			for {
				if _, err := r.Answer([][]byte{key}); err != nil {
					return // connection cut by shutdown
				}
				served.Add(1)
			}
		}(r)
	}
	// Let traffic flow, then terminate mid-load.
	deadline := time.Now().Add(5 * time.Second)
	for served.Load() < 20 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if served.Load() == 0 {
		t.Fatal("no requests served before SIGTERM; the test would not exercise an active drain")
	}
	if err := srv.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	// Wait closes the pipe, so the log must be read to its end first or the
	// final "shutdown complete" line can be lost.
	go func() { <-logDone; exited <- srv.Wait() }()
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("pirserver exited non-zero after SIGTERM: %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("pirserver did not exit within 20s of SIGTERM — drain hung")
	}
	wg.Wait()
	logMu.Lock()
	logs := string(logText)
	logMu.Unlock()
	if !regexp.MustCompile(`shutdown complete`).MatchString(logs) {
		t.Fatalf("drain did not complete cleanly; server log:\n%s", logs)
	}
	if !regexp.MustCompile(`batch=16 inflight=[1-9]`).MatchString(logs) {
		t.Errorf("startup line does not report the front door's in-flight width; server log:\n%s", logs)
	}
	t.Logf("served %d requests, then drained cleanly on SIGTERM", served.Load())
}

// epochStraddler wraps one cluster member to force a deterministic
// mixed-epoch merge: the member's FIRST range evaluation blocks until the
// next update commit lands, so its partial share is computed one epoch
// after its sibling's and the cluster must re-fan the batch.
type epochStraddler struct {
	*engine.Replica
	mu     sync.Mutex
	armed  bool
	waiter chan struct{}
}

func (s *epochStraddler) AnswerRangeEpoch(ctx context.Context, keys [][]byte, lo, hi int) ([][]uint32, uint64, bool, error) {
	s.mu.Lock()
	if !s.armed {
		s.armed = true
		ch := make(chan struct{})
		s.waiter = ch
		s.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
		}
	} else {
		s.mu.Unlock()
	}
	return s.Replica.AnswerRangeEpoch(ctx, keys, lo, hi)
}

func (s *epochStraddler) CommitUpdate(ctx context.Context, epoch uint64) error {
	err := s.Replica.CommitUpdate(ctx, epoch)
	s.mu.Lock()
	if s.waiter != nil {
		close(s.waiter)
		s.waiter = nil
	}
	s.mu.Unlock()
	return err
}

// TestEpochRetryObservabilityClusterTCP runs a read/update mix against a
// 2-shard cluster front over TCP and asserts the epoch-retry count the
// harness reports equals the cluster's own ErrMixedEpoch re-fan counter —
// the full observability chain (cluster counter → capability probe →
// serving stats → wire stats op → report) carries the number unchanged,
// and churn actually produced at least one retry (the straddler
// guarantees it deterministically).
func TestEpochRetryObservabilityClusterTCP(t *testing.T) {
	const rows, lanes = 2048, 4
	rep0, err := pir.NewReplica(0, loadTable(t, rows, lanes, 41))
	if err != nil {
		t.Fatal(err)
	}
	rep1, err := pir.NewReplica(0, loadTable(t, rows, lanes, 41))
	if err != nil {
		t.Fatal(err)
	}
	straddler := &epochStraddler{Replica: rep0}
	cluster, err := engine.NewCluster(
		engine.ClusterShard{Backend: straddler, Name: "shard0"},
		engine.ClusterShard{Backend: rep1, Name: "shard1"},
	)
	if err != nil {
		t.Fatal(err)
	}
	// One extra conn is reserved for updates: the straddler parks read
	// batches until the next commit, and a read blocked on a shared conn
	// would stop that commit from ever arriving (head-of-line deadlock).
	front, remotes := serveFront(t, cluster, serving.FrontConfig{
		Policy: serving.Policy{MaxBatch: 16, MaxDelay: time.Millisecond},
	}, 5)
	readConns, updateConns := remotes[:4], remotes[4:]

	cl, err := pir.NewClient("aes128", rows, rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	key, _, err := cl.Query(11)
	if err != nil {
		t.Fatal(err)
	}

	cfg := loadgen.Config{
		Seed: 43, Clients: 1_000, Rows: rows, ZipfS: 1.3,
		QPS: 400, Duration: 1500 * time.Millisecond,
		UpdateFrac: 0.15, UpdateRows: 2,
	}
	ops, err := loadgen.Schedule(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The straddler needs an update to commit after the first read blocks;
	// verify the (deterministic) schedule provides one.
	firstRead, hasLaterUpdate := -1, false
	for i, op := range ops {
		if !op.Update && firstRead < 0 {
			firstRead = i
		}
		if op.Update && firstRead >= 0 {
			hasLaterUpdate = true
			break
		}
	}
	if !hasLaterUpdate {
		t.Fatal("schedule has no update after the first read; pick a different seed")
	}

	rep, err := loadgen.Run(loadgen.RunConfig{
		Targets:       asTargets(readConns),
		UpdateTargets: asTargets(updateConns),
		Schedule:      ops,
		KeyFor:        func(uint64) []byte { return key },
		// Stateless (op-derived) values: WritesFor runs concurrently.
		WritesFor: func(op loadgen.Op) []engine.RowWrite {
			writes := make([]engine.RowWrite, 2)
			for i := range writes {
				vals := make([]uint32, lanes)
				for l := range vals {
					vals[l] = uint32(op.Client*0x9e3779b9 + op.Row + uint64(i*lanes+l))
				}
				writes[i] = engine.RowWrite{Row: (op.Row + uint64(i)) % rows, Vals: vals}
			}
			return writes
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Counts.Errors > 0 {
		t.Fatalf("%d requests errored under churn", rep.Counts.Errors)
	}
	if rep.EpochRetries == 0 {
		t.Fatal("no epoch retries observed; the straddler should force at least one mixed-epoch re-fan")
	}
	if got := cluster.EpochRetries(); rep.EpochRetries != got {
		t.Fatalf("harness reported %d epoch retries, cluster counted %d", rep.EpochRetries, got)
	}
	if s := front.ServingStats(); s.EpochRetries != cluster.EpochRetries() {
		t.Fatalf("front stats report %d epoch retries, cluster counted %d", s.EpochRetries, cluster.EpochRetries())
	}
	t.Logf("read/update mix under churn: ok=%d updates-in-mix p99=%.1fms epoch-retries=%d (== cluster counter)",
		rep.Counts.OK, rep.Latency.P99, rep.EpochRetries)
}
