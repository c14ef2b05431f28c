// Command bench is the repository's one serving benchmark: it builds each
// workload's real serving stack in-process from the layers' public
// constructors, drives it closed-loop from two goroutines over two
// pir.Remote TCP connections, checks sampled answers against a reference,
// and prints every metric by name with its unit. README.md in this
// directory defines the workloads and metrics; BENCHMARK.json at the
// repository root is the contract later changes are judged by.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// metricSpec names a metric with its unit and which way is better; bound is
// the share of the parent's median an end-to-end metric may worsen by.
type metricSpec struct {
	name, unit string
	higher     bool
	bound      float64
}

// endToEnd are the six gated metrics, the same on every workload. The
// table is mirrored in BENCHMARK.json (the package test holds the two
// equal).
var endToEnd = []metricSpec{
	{"setup_s", "s", false, 0.25},
	{"throughput_keys_per_s", "keys/s", true, 0.25},
	{"latency_p50_ms", "ms", false, 0.25},
	{"cpu_ms_per_key", "ms", false, 0.25},
	{"wire_bytes_per_key", "bytes", false, 0.01},
	{"ok_ratio", "ratio", true, 0.005},
}

// perLayer are the ungated metrics of single layers, printed by a traced
// run. A metric that does not apply to a workload (store paging on an
// in-RAM table, shardnet off the cluster) reads 0 there.
var perLayer = []metricSpec{
	{name: "dpf.gen_us_per_key", unit: "us"},
	{name: "dpf.key_bytes", unit: "bytes"},
	{name: "dpf.expand_us_per_key", unit: "us"},
	{name: "dpf.prf_blocks_per_key", unit: "count"},
	{name: "dpf.prf_blocks_per_s_core", unit: "1/s", higher: true},
	{name: "strategy.run_ms_per_batch", unit: "ms"},
	{name: "strategy.tile_us_per_key", unit: "us"},
	{name: "strategy.accumulate_us_per_key", unit: "us"},
	{name: "strategy.table_read_bytes_per_key", unit: "bytes"},
	{name: "strategy.stream_gb_per_s", unit: "GB/s", higher: true},
	{name: "store.page_loads_per_key", unit: "count"},
	{name: "store.page_hit_ratio", unit: "ratio", higher: true},
	{name: "store.chunks_pass_ms", unit: "ms"},
	{name: "store.update_ms_p50", unit: "ms"},
	{name: "store.chain_depth_max", unit: "count"},
	{name: "store.epochs_installed", unit: "count", higher: true},
	{name: "engine.answer_ms_per_batch", unit: "ms"},
	{name: "engine.self_ms_per_batch", unit: "ms"},
	{name: "engine.batch_keys_mean", unit: "count", higher: true},
	{name: "engine.cluster_self_ms_per_batch", unit: "ms"},
	{name: "engine.epoch_retries", unit: "count"},
	{name: "shardnet.rpc_ms_p50", unit: "ms"},
	{name: "shardnet.self_ms_per_rpc", unit: "ms"},
	{name: "shardnet.wire_bytes_per_key", unit: "bytes"},
	{name: "pir.transport_self_ms_per_request", unit: "ms"},
	{name: "pir.wire_up_bytes_per_key", unit: "bytes"},
	{name: "pir.wire_down_bytes_per_key", unit: "bytes"},
	{name: "serving.front_ms_per_request", unit: "ms"},
	{name: "serving.self_ms_per_request", unit: "ms"},
	{name: "serving.accepted", unit: "count", higher: true},
	{name: "serving.shed", unit: "count"},
	{name: "proc.peak_rss_mb", unit: "MB"},
	{name: "proc.live_heap_mb", unit: "MB"},
	{name: "proc.mallocs_per_key", unit: "count"},
	{name: "proc.alloc_bytes_per_key", unit: "bytes"},
	{name: "proc.gc_pause_ms", unit: "ms"},
	{name: "proc.tracing_overhead_ratio", unit: "ratio"},
	{name: "proc.steal_ratio", unit: "ratio"},
	{name: "setup.table_build_s", unit: "s"},
	{name: "setup.file_write_s", unit: "s"},
	{name: "setup.stack_start_s", unit: "s"},
	{name: "setup.keygen_s", unit: "s"},
	{name: "setup.warmup_s", unit: "s"},
	{name: "client.latency_p90_ms", unit: "ms"},
	{name: "client.latency_p99_ms", unit: "ms"},
	{name: "client.latency_samples", unit: "count", higher: true},
	{name: "client.requests_attempted", unit: "count", higher: true},
	{name: "client.requests_failed", unit: "count"},
	{name: "client.requests_refused", unit: "count"},
	{name: "client.verified_keys", unit: "count", higher: true},
	{name: "trace.client_ms_per_request", unit: "ms"},
	{name: "trace.layers_sum_ms_per_request", unit: "ms"},
	{name: "trace.strategy_share_of_engine", unit: "ratio"},
	{name: "trace.strategy_share_of_client", unit: "ratio"},
}

// defaultSeconds is the -seconds a plain run uses, and run_seconds in
// BENCHMARK.json.
const defaultSeconds = 15

const (
	// stealLimit is the share of CPU time the hypervisor may withhold
	// during a round before the round counts as disturbed: it measured the
	// host's other tenants, not the program.
	stealLimit = 0.01
	// maxExtraRounds bounds how many disturbed rounds a run replaces, and
	// extraRoundsBy is how long into a run it still starts one, so a run
	// on a host that stays disturbed ends well inside the driver's limit.
	maxExtraRounds = 3
	extraRoundsBy  = 60 * time.Second
)

// tracePairs is how many untraced/traced round pairs a traced run takes
// its medians over.
const tracePairs = 2

// runner is one parent invocation: it re-executes this binary once per
// round, so process-wide numbers and GC state never leak between rounds.
type runner struct {
	ctx     context.Context
	exe     string
	out     string
	seed    uint64
	seconds int
	quick   bool
}

// child runs one round in a fresh process and returns what it printed.
func (r *runner) child(w workload, round int, traced bool) (*roundResult, error) {
	dir, err := os.MkdirTemp(r.out, "round-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	args := []string{"-child", "-workload", w.name, "-dir", dir,
		"-seed", fmt.Sprint(r.seed), "-seconds", fmt.Sprint(r.seconds), "-round", fmt.Sprint(round)}
	if traced {
		args = append(args, "-trace", "1")
	}
	if r.quick {
		args = append(args, "-quick")
	}
	ctx, cancel := context.WithTimeout(r.ctx, 150*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, r.exe, args...)
	cmd.Stderr = os.Stderr
	cmd.WaitDelay = 5 * time.Second
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s round %d: child process: %w", w.name, round, err)
	}
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	var res roundResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s round %d: child output: %w", w.name, round, err)
	}
	if traced {
		if err := os.Rename(res.TraceFile, filepath.Join(r.out, "trace-"+w.name+".json")); err != nil {
			return nil, err
		}
	}
	return &res, nil
}

// tally is what a run reports to the driver about one workload.
type tally struct {
	attempted, failed int
	problems          []string // named reasons the run is not correct
}

func (t *tally) add(res *roundResult) {
	p := res.Phases["timed"]
	t.attempted += p.Attempted
	t.failed += p.Failed
	for phase, c := range res.Phases {
		if c.Failed > 0 {
			t.problems = append(t.problems, fmt.Sprintf("%s round %d: %d of %d %s requests failed (%d refused): %s",
				res.Workload, res.Round, c.Failed, c.Attempted, phase, c.Refused, res.FirstError))
		}
	}
	for _, m := range res.Mismatches {
		t.failed++
		t.problems = append(t.problems, fmt.Sprintf("%s round %d: verification mismatch: %s", res.Workload, res.Round, m))
	}
}

func column(results []*roundResult, name string) []float64 {
	vals := make([]float64, len(results))
	for i, r := range results {
		vals[i] = r.Metrics[name]
	}
	return vals
}

func phaseLine(results []*roundResult) string {
	var parts []string
	for _, phase := range []string{"warmup", "timed", "readback"} {
		var c phaseCounts
		for _, r := range results {
			c.add(r.Phases[phase])
		}
		parts = append(parts, fmt.Sprintf("%s attempted %d failed %d refused %d late %d", phase, c.Attempted, c.Failed, c.Refused, c.Late))
	}
	return strings.Join(parts, " | ")
}

func describe(w workload, timed int) string {
	table := fmt.Sprintf("%d rows x %d lanes (%d KiB)", w.rows, w.lanes, w.rows*w.lanes*4>>10)
	switch {
	case w.cacheBytes > 0:
		table += fmt.Sprintf(", paged through a %d KiB cache", w.cacheBytes>>10)
	case w.nodes > 0:
		table += fmt.Sprintf(", split over %d shardnet nodes", w.nodes)
	}
	if w.updateEvery > 0 {
		table += fmt.Sprintf(", a %d-row update every %d requests on connection 0", w.updateRows, w.updateEvery)
	}
	return fmt.Sprintf("%s; %d keys/request, %d timed requests/connection/round, latency limit %v; closed loop, 2 clients",
		table, w.k, timed, w.limit)
}

// endToEndRounds measures the gated metrics: rounds fresh processes per
// workload, the rounds of different workloads interleaved so each
// workload's samples spread over the whole invocation. A round during
// which the hypervisor withheld more than stealLimit of the CPU time is
// replaced by a fresh round (new inputs from the same seed) when that one
// was disturbed less, a bounded number of times.
func (r *runner) endToEndRounds(ws []workload) (map[string][]*roundResult, error) {
	start := time.Now()
	results := map[string][]*roundResult{}
	for round := 0; round < rounds; round++ {
		for _, w := range ws {
			res, err := r.child(w, round, false)
			if err != nil {
				return nil, err
			}
			results[w.name] = append(results[w.name], res)
		}
	}
	steal := func(res *roundResult) float64 { return res.Metrics["proc.steal_ratio"] }
	for extra := 0; extra < maxExtraRounds && time.Since(start) < extraRoundsBy*time.Duration(len(ws)); extra++ {
		for _, w := range ws {
			rs := results[w.name]
			worst := 0
			for i := range rs {
				if steal(rs[i]) > steal(rs[worst]) {
					worst = i
				}
			}
			if steal(rs[worst]) <= stealLimit {
				continue
			}
			res, err := r.child(w, rounds+extra, false)
			if err != nil {
				return nil, err
			}
			fmt.Printf("%s: round %d lost %.1f%% of its CPU time to the hypervisor; re-ran it as round %d (%.1f%%)\n",
				w.name, rs[worst].Round, 100*steal(rs[worst]), res.Round, 100*steal(res))
			if steal(res) < steal(rs[worst]) {
				rs[worst] = res
			}
		}
	}
	return results, nil
}

// summarize reduces a workload's rounds to the median of every end-to-end
// metric and the run's tally.
func summarize(rs []*roundResult) (map[string]float64, *tally) {
	medians, ta := map[string]float64{}, &tally{}
	for _, spec := range endToEnd {
		medians[spec.name] = median(column(rs, spec.name))
	}
	for _, res := range rs {
		ta.add(res)
	}
	return medians, ta
}

func (r *runner) printEndToEnd(w workload, rs []*roundResult, ta *tally) {
	fmt.Printf("\n== %s, end to end (median of %d rounds, tracing off) ==\n   %s\n   %s\n", w.name, rounds, w.why, describe(r.sized(w)))
	for _, spec := range endToEnd {
		vals := column(rs, spec.name)
		fmt.Printf("   %-24s %12.6g %-7s rounds %s spread %.1f%%\n", spec.name, median(vals), spec.unit, fmtVals(vals), spread(vals)*100)
	}
	fmt.Printf("   latency_p50_ms is over %.0f read requests per round; p90 %.4g ms, p99 %.4g ms (reported, not gated)\n",
		median(column(rs, "client.latency_samples")), median(column(rs, "client.latency_p90_ms")), median(column(rs, "client.latency_p99_ms")))
	fmt.Printf("   requests: %s\n", phaseLine(rs))
	fmt.Printf("   CPU time withheld by the hypervisor (steal), per round: %s\n", fmtVals(column(rs, "proc.steal_ratio")))
	verified := 0.0
	for _, v := range column(rs, "client.verified_keys") {
		verified += v
	}
	fmt.Printf("   reference check: %.0f sampled keys re-derived, %d problems\n", verified, len(ta.problems))
}

func fmtVals(vals []float64) string {
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = fmt.Sprintf("%.5g", v)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// sized applies -quick and returns the workload with its timed request
// count.
func (r *runner) sized(w workload) (workload, int) {
	if r.quick {
		return w.quick(), 8
	}
	return w, w.requestsPerRound(r.seconds)
}

// tracingChanged compares a traced round with its untraced partner over
// the same inputs and names every count tracing must leave untouched but
// did not: PRF blocks, table bytes and batch size per key exactly, wire
// bytes within 0.5% (a read racing an update can see either epoch, and a
// share's gob encoding is a few bytes longer or shorter for it).
func tracingChanged(plain, traced *roundResult) []string {
	var changed []string
	for _, name := range []string{"dpf.prf_blocks_per_key", "strategy.table_read_bytes_per_key", "engine.batch_keys_mean", "wire_bytes_per_key"} {
		a, b := plain.Metrics[name], traced.Metrics[name]
		tol := 0.0
		if name == "wire_bytes_per_key" {
			tol = 0.005 * a
		}
		if a == 0 || b < a-tol || b > a+tol {
			changed = append(changed, fmt.Sprintf("%s: tracing changed %s: %v untraced, %v traced", plain.Workload, name, a, b))
		}
	}
	return changed
}

// tracedRun measures the per-layer metrics: tracePairs pairs of an
// untraced and a traced round over identical inputs. Span-derived metrics
// and direct-call calibrations come from the traced rounds, everything
// else from the untraced ones, and the throughput ratio of the two is the
// tracing overhead.
func (r *runner) tracedRun(ws []workload) (map[string]map[string]float64, map[string]*tally, error) {
	plain, traced := map[string][]*roundResult{}, map[string][]*roundResult{}
	for pair := 0; pair < tracePairs; pair++ {
		for _, w := range ws {
			for _, on := range []bool{false, true} {
				res, err := r.child(w, pair, on)
				if err != nil {
					return nil, nil, err
				}
				if on {
					traced[w.name] = append(traced[w.name], res)
				} else {
					plain[w.name] = append(plain[w.name], res)
				}
			}
		}
	}
	medians := map[string]map[string]float64{}
	tallies := map[string]*tally{}
	for _, w := range ws {
		fmt.Printf("\n== %s, per layer (median of %d traced rounds; counts and proc.* from their untraced partners) ==\n", w.name, tracePairs)
		m := map[string]float64{}
		ta := &tally{}
		medians[w.name], tallies[w.name] = m, ta
		for _, spec := range perLayer {
			src := plain[w.name]
			if _, ok := src[0].Metrics[spec.name]; !ok {
				src = traced[w.name]
			}
			m[spec.name] = median(column(src, spec.name))
		}
		m["proc.tracing_overhead_ratio"] = 1 - median(column(traced[w.name], "throughput_keys_per_s"))/median(column(plain[w.name], "throughput_keys_per_s"))
		for _, spec := range perLayer {
			fmt.Printf("   %-36s %14.6g %s\n", spec.name, m[spec.name], spec.unit)
		}
		for i, tr := range traced[w.name] {
			pl := plain[w.name][i]
			ta.add(pl)
			ta.add(tr)
			ta.problems = append(ta.problems, tracingChanged(pl, tr)...)
		}
		sum, client := m["trace.layers_sum_ms_per_request"], m["trace.client_ms_per_request"]
		fmt.Printf("   accounting: layer self times sum to %.4g ms of the %.4g ms client round trip (%.1f%%); strategy.run is %.1f%% of engine.answer and %.1f%% of the round trip; tracing cost %.1f%% of throughput\n",
			sum, client, 100*sum/client, 100*m["trace.strategy_share_of_engine"], 100*m["trace.strategy_share_of_client"], 100*m["proc.tracing_overhead_ratio"])
		fmt.Printf("   requests (untraced+traced): %s\n", phaseLine(append(plain[w.name], traced[w.name]...)))
		fmt.Printf("   spans: %s\n", filepath.Join(r.out, "trace-"+w.name+".json"))
	}
	return medians, tallies, nil
}

// driverLine is the one JSON object the contract wants last on stdout.
func driverLine(specs []metricSpec, medians map[string]float64, ta *tally) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(ta.problems) == 0, ta.attempted, ta.failed, map[string]value{}}
	for _, s := range specs {
		out.Metrics[s.name] = value{medians[s.name], s.unit}
	}
	b, _ := json.Marshal(out) // plain numbers and strings cannot fail to marshal
	return string(b)
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		workloadName = flag.String("workload", "", "run only this workload (default: all four, rounds interleaved)")
		seed         = flag.Uint64("seed", 1, "derives table content, row choices, key material and update rows")
		seconds      = flag.Int("seconds", defaultSeconds, "timed-phase budget of one run; fixes the op counts (see README)")
		trace        = flag.Int("trace", -1, "0: end-to-end metrics only, 1: traced per-layer metrics only, default both")
		out          = flag.String("out", "bench/out", "directory for trace files and scratch table files")
		quick        = flag.Bool("quick", false, "toy sizes (2^8 rows, 8 requests): a smoke pass, not a measurement")
		repeat       = flag.Bool("repeat", false, "run the repeatability check: two sets of ten runs per workload (about 35 minutes)")
		isChild      = flag.Bool("child", false, "internal: run one round in this process")
		round        = flag.Int("round", 0, "internal: the child's round index")
		dir          = flag.String("dir", "", "internal: the child's scratch directory")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if *seconds < 1 {
		return errors.New("-seconds must be at least 1")
	}
	ws := workloads
	if *workloadName != "" {
		w, err := workloadByName(*workloadName)
		if err != nil {
			return err
		}
		ws = []workload{w}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	r := &runner{ctx: ctx, out: *out, seed: *seed, seconds: *seconds, quick: *quick}

	if *isChild {
		w, timed := r.sized(ws[0])
		cfg := roundConfig{w: w, seed: *seed, round: *round, timed: timed, traced: *trace == 1, dir: *dir, calib: 150 * time.Millisecond}
		if !*quick {
			cfg.cap = 4 * time.Duration(*seconds) * time.Second / rounds
		}
		res, err := runRound(cfg)
		if err != nil {
			return err
		}
		return json.NewEncoder(os.Stdout).Encode(res)
	}

	var err error
	if r.exe, err = os.Executable(); err != nil {
		return err
	}
	if err := os.MkdirAll(r.out, 0o755); err != nil {
		return err
	}
	fmt.Println(environment())
	if *repeat {
		return r.repeatability()
	}
	fmt.Printf("seed %d, %d s of timed phase per run in %d rounds, each round a fresh process\n", r.seed, r.seconds, rounds)

	var problems []string
	var last string
	if *trace != 1 {
		results, err := r.endToEndRounds(ws)
		if err != nil {
			return err
		}
		for _, w := range ws {
			medians, ta := summarize(results[w.name])
			r.printEndToEnd(w, results[w.name], ta)
			problems = append(problems, ta.problems...)
			last = driverLine(endToEnd, medians, ta)
		}
	}
	if *trace != 0 {
		medians, tallies, err := r.tracedRun(ws)
		if err != nil {
			return err
		}
		for _, w := range ws {
			problems = append(problems, tallies[w.name].problems...)
			last = driverLine(perLayer, medians[w.name], tallies[w.name])
		}
	}
	if len(ws) == 1 && *trace >= 0 {
		fmt.Println(last)
	}
	if len(problems) > 0 {
		return fmt.Errorf("the run is not correct:\n  %s", strings.Join(problems, "\n  "))
	}
	return nil
}
