// Command pirload drives open-loop, Zipf-skewed load against a running
// pirserver and reports serving latency the way cmd/benchjson reports
// kernel throughput: a machine-readable artifact (BENCH_serving.json)
// with achieved QPS, accepted-request latency percentiles, shed/error
// counts, and the server's epoch-retry count.
//
// Open-loop means arrivals come from a fixed-rate schedule, not from
// completions: a slow server does not slow the generator down, it piles
// requests up — which is how production traffic behaves and why
// closed-loop benchmarks understate tail latency. Every random choice
// (Poisson arrival gaps, client IDs from a configurable population,
// Zipf-skewed rows, the read/update interleave, DPF key material) derives
// from -seed through a PCG, so the same invocation replays the
// byte-identical workload; the artifact records the schedule fingerprint
// to prove it.
//
//	pirserver -party 0 -addr :7700 -rows 65536 -maxqueue 256 &
//	pirload -addr localhost:7700 -rows 65536 -qps 2000 -duration 10s
//
// With -compare the run gates against a committed baseline artifact the
// way `benchjson -compare` gates the hot path, using machine-tolerant
// ratios (achieved/offered throughput, shed fraction, a p99 band) plus
// hard invariants (same schedule fingerprint, zero non-shed errors).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand/v2"
	"os"
	"time"

	"gpudpf/internal/dpf"
	"gpudpf/internal/engine"
	"gpudpf/internal/loadgen"
	"gpudpf/internal/pir"
	"gpudpf/internal/shardnet"
)

func main() {
	addr := flag.String("addr", "localhost:7700", "pirserver address to drive")
	party := flag.Int("party", 0, "which party's key share to send (checked at dial)")
	rows := flag.Int("rows", 65536, "server table rows (checked at dial)")
	lanes := flag.Int("lanes", 32, "server row lanes (must match the server; sizes generated update rows)")
	seed := flag.Uint64("seed", 1, "workload seed: same seed, same schedule and same key material")
	clients := flag.Uint64("clients", 1_000_000, "client population size request origins are drawn from")
	zipfS := flag.Float64("zipf", 1.2, "Zipf skew of the requested rows (> 1)")
	qps := flag.Float64("qps", 1000, "offered arrival rate")
	duration := flag.Duration("duration", 5*time.Second, "how long to drive")
	updateFrac := flag.Float64("updatefrac", 0, "fraction of ops that are row-update batches instead of reads")
	updateRows := flag.Int("updaterows", 4, "rows per update op")
	conns := flag.Int("conns", 8, "TCP connections in the pool (client-side concurrency)")
	slo := flag.Duration("slo", 50*time.Millisecond, "latency SLO recorded in the artifact (informational; the server enforces its own -slo)")
	out := flag.String("out", "BENCH_serving.json", "artifact path (empty = stdout only)")
	compare := flag.String("compare", "", "baseline BENCH_serving.json to gate against; exits 1 on regression")
	flag.Parse()

	cfg := loadgen.Config{
		Seed:       *seed,
		Clients:    *clients,
		Rows:       uint64(*rows),
		ZipfS:      *zipfS,
		QPS:        *qps,
		Duration:   *duration,
		UpdateFrac: *updateFrac,
		UpdateRows: *updateRows,
	}
	ops, err := loadgen.Schedule(cfg)
	if err != nil {
		log.Fatalf("pirload: %v", err)
	}
	fp := loadgen.Fingerprint(ops)
	log.Printf("pirload: schedule: %d ops over %v at %.0f qps (fingerprint %016x)", len(ops), *duration, *qps, fp)

	keys, err := buildKeys(ops, *rows, *party, *seed)
	if err != nil {
		log.Fatalf("pirload: %v", err)
	}

	// Updates get a dedicated conn so a read parked in the server's
	// batcher can't head-of-line-block the epoch pipeline.
	extra := 0
	if *updateFrac > 0 {
		extra = 1
	}
	// Every connection's hello pins the keys' configuration, so a mismatched
	// server fails here, naming both values, instead of answering garbage.
	pin := shardnet.Options{PRG: dpf.PRGName, Party: *party, Rows: *rows}
	pool := make([]loadgen.Target, *conns+extra)
	for i := range pool {
		r, err := pir.Dial(*addr, pin)
		if err != nil {
			log.Fatalf("pirload: %v", err)
		}
		defer r.Close()
		pool[i] = r
	}
	targets, updateTargets := pool[:*conns], pool[*conns:]

	rep, err := loadgen.Run(loadgen.RunConfig{
		Targets:       targets,
		UpdateTargets: updateTargets,
		Schedule:      ops,
		KeyFor:        func(row uint64) []byte { return keys[row] },
		WritesFor: func(op loadgen.Op) []engine.RowWrite {
			return updateWrites(op, *seed, uint64(*rows), *lanes, *updateRows)
		},
	})
	if err != nil {
		log.Fatalf("pirload: %v", err)
	}

	o := output{
		SchemaVersion: 1,
		Generated:     time.Now().UTC().Format(time.RFC3339),
		Config: configEcho{
			Seed: *seed, Clients: *clients, Rows: *rows, Lanes: *lanes,
			ZipfS: *zipfS, QPS: *qps, DurationS: duration.Seconds(),
			UpdateFrac: *updateFrac, UpdateRows: *updateRows, Conns: *conns,
			Party: *party, PRG: dpf.PRGName, Early: dpf.DefaultEarly(dpf.DomainBits(*rows)),
			SLOms: float64(*slo) / float64(time.Millisecond),
		},
		ScheduleOps:         len(ops),
		ScheduleFingerprint: fmt.Sprintf("%016x", fp),
		Report:              rep,
	}
	data, err := json.MarshalIndent(&o, "", "  ")
	if err != nil {
		log.Fatalf("pirload: %v", err)
	}
	data = append(data, '\n')
	if *out != "" {
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			log.Fatalf("pirload: %v", err)
		}
	}
	os.Stdout.Write(data)
	log.Printf("pirload: achieved %.0f/%.0f qps, p50 %.2fms p99 %.2fms p999 %.2fms, ok=%d shed=%d err=%d epoch-retries=%d",
		rep.AchievedQPS, rep.OfferedQPS, rep.Latency.P50, rep.Latency.P99, rep.Latency.P999,
		rep.Counts.OK, rep.Counts.Shed, rep.Counts.Errors, rep.EpochRetries)

	if *compare != "" {
		base, err := readBaseline(*compare)
		if err != nil {
			log.Fatalf("pirload: -compare: %v", err)
		}
		if err := gate(&o, base); err != nil {
			log.Fatalf("pirload: REGRESSION vs %s: %v", *compare, err)
		}
		log.Printf("pirload: within baseline %s", *compare)
	}
}

// output is the BENCH_serving.json schema (documented in the repo root's
// doc.go).
type output struct {
	SchemaVersion       int        `json:"schema_version"`
	Generated           string     `json:"generated"`
	Config              configEcho `json:"config"`
	ScheduleOps         int        `json:"schedule_ops"`
	ScheduleFingerprint string     `json:"schedule_fingerprint"`
	loadgen.Report
}

type configEcho struct {
	Seed       uint64  `json:"seed"`
	Clients    uint64  `json:"clients"`
	Rows       int     `json:"rows"`
	Lanes      int     `json:"lanes"`
	ZipfS      float64 `json:"zipf_s"`
	QPS        float64 `json:"qps"`
	DurationS  float64 `json:"duration_s"`
	UpdateFrac float64 `json:"update_frac"`
	UpdateRows int     `json:"update_rows"`
	Conns      int     `json:"conns"`
	Party      int     `json:"party"`
	PRG        string  `json:"prg"`
	Early      int     `json:"early"`
	SLOms      float64 `json:"slo_ms"`
}

// buildKeys pre-generates the party's DPF key for every distinct row the
// schedule reads, from a PCG seeded by the workload seed — generation off
// the timed path (keys are the client's cost, not the server's), and
// deterministic so two runs of one seed send identical bytes.
func buildKeys(ops []loadgen.Op, rows, party int, seed uint64) (map[uint64][]byte, error) {
	cl, err := pir.NewClient(dpf.PRGName, rows, pir.InsecureSeeded(rand.New(rand.NewPCG(seed, seed^0xda3e39cb94b95bdb))))
	if err != nil {
		return nil, err
	}
	keys := make(map[uint64][]byte)
	for _, op := range ops {
		if op.Update {
			continue
		}
		if _, ok := keys[op.Row]; ok {
			continue
		}
		k0, k1, err := cl.Query(op.Row)
		if err != nil {
			return nil, fmt.Errorf("keygen row %d: %w", op.Row, err)
		}
		if party == 0 {
			keys[op.Row] = k0
		} else {
			keys[op.Row] = k1
		}
	}
	return keys, nil
}

// updateWrites expands an update op into its deterministic row batch:
// rows and content derive from (seed, op), splitmix64-style, mirroring
// pirserver's refresher so update cost is realistic (full rows, scattered
// placement).
func updateWrites(op loadgen.Op, seed, rows uint64, lanes, count int) []engine.RowWrite {
	if count < 1 {
		count = 1
	}
	writes := make([]engine.RowWrite, 0, count)
	seen := make(map[uint64]bool, count)
	state := seed ^ op.Client*0xa24baed4963ee407 ^ op.Row
	for len(writes) < count {
		state += 0x9e3779b97f4a7c15
		row := mix64(state) % rows
		if seen[row] {
			continue
		}
		seen[row] = true
		vals := make([]uint32, lanes)
		vstate := state
		for l := range vals {
			vstate += 0x9e3779b97f4a7c15
			vals[l] = uint32(mix64(vstate))
		}
		writes = append(writes, engine.RowWrite{Row: row, Vals: vals})
	}
	return writes
}

// mix64 is the splitmix64 finalizer.
func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

func readBaseline(path string) (*output, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var o output
	if err := json.Unmarshal(data, &o); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &o, nil
}

// Gate tolerances. Latency on shared CI machines is noisy, so the gate
// leans on ratios and invariants rather than absolute milliseconds: the
// throughput ratio and shed fraction are machine-independent at a fixed
// offered rate, and the p99 band is wide (a genuine batching regression
// blows p99 up by far more than 4×, while scheduler jitter does not).
const (
	gateThroughputSlack = 0.10 // achieved/offered may drop this much vs baseline
	gateShedSlack       = 0.05 // shed fraction may grow this much vs baseline
	gateP99Factor       = 4.0  // p99 may grow this much vs baseline...
	gateP99FloorMs      = 250  // ...or up to this absolute floor, whichever is larger
)

// gate fails when cur regresses from base.
func gate(cur, base *output) error {
	if cur.ScheduleFingerprint != base.ScheduleFingerprint {
		return fmt.Errorf("schedule fingerprint %s does not match baseline %s — the runs drove different workloads; regenerate the baseline",
			cur.ScheduleFingerprint, base.ScheduleFingerprint)
	}
	if cur.Counts.Errors > 0 {
		return fmt.Errorf("%d non-shed errors (baseline %d)", cur.Counts.Errors, base.Counts.Errors)
	}
	curRatio := ratio(cur.AchievedQPS, cur.OfferedQPS)
	baseRatio := ratio(base.AchievedQPS, base.OfferedQPS)
	if curRatio < baseRatio-gateThroughputSlack {
		return fmt.Errorf("achieved/offered %.3f fell more than %.2f below baseline %.3f",
			curRatio, gateThroughputSlack, baseRatio)
	}
	if curShed, baseShed := shedFrac(cur), shedFrac(base); curShed > baseShed+gateShedSlack {
		return fmt.Errorf("shed fraction %.3f exceeds baseline %.3f by more than %.2f",
			curShed, baseShed, gateShedSlack)
	}
	if limit := max(base.Latency.P99*gateP99Factor, gateP99FloorMs); cur.Latency.P99 > limit {
		return fmt.Errorf("p99 %.2fms exceeds limit %.2fms (baseline p99 %.2fms)",
			cur.Latency.P99, limit, base.Latency.P99)
	}
	return nil
}

func ratio(num, den float64) float64 {
	if den <= 0 {
		return 0
	}
	return num / den
}

func shedFrac(o *output) float64 {
	total := o.Counts.OK + o.Counts.Shed + o.Counts.Errors
	if total == 0 {
		return 0
	}
	return float64(o.Counts.Shed) / float64(total)
}
