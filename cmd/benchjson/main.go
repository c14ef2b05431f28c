// Command benchjson runs the engine hot-path comparison programmatically
// and writes a machine-readable benchmark file (default BENCH_hotpath.json)
// that starts the repo's measured performance trajectory.
//
// Five cases run per batch size — the BenchmarkTiledAnswer pair, an
// out-of-core leg, and their parallel variants:
//
//   - seed: the seed revision's per-query MemBoundTree hot path — scalar
//     PRF expansion (one Expand call per tree node), freshly appended child
//     groups, one full table pass per query. The baseline predates the
//     early-termination wire format, so it always evaluates full-depth
//     (wire v1) keys.
//   - tiled: the batched/tiled hot path — dpf.ExpandBatch frontiers,
//     pooled scratch, one streaming table pass per tile of 32 queries, and
//     (at the default -early 2) early-terminated keys that cut PRF work
//     ~4× by converting each terminal seed into four leaf lanes (§3.1).
//   - tiled-paged: the same tiled hot path reading the table out-of-core
//     through a store.PagedBacking whose cache budget is a quarter of the
//     table, so every pass evicts and reloads pages. Its ns/op against
//     tiled shows the paging tax; the case is informational — the
//     -compare and -minqps gates only bind the "tiled" case (and, via the
//     "par:" -minqps prefix, "tiled-par").
//   - tiled-par / tiled-paged-par: the tiled and tiled-paged paths with
//     the table stream fanned across a worker per core
//     (MemBoundTree.Workers): row-block parallel accumulate, pipelined
//     expand/stream overlap, and — on the paged leg — one worker's page
//     read overlapping another's accumulate. Bit-identical answers; only
//     the wall clock moves.
//
// The sequential cases are pinned to GOMAXPROCS=1 (matching the committed
// baseline's single-threaded numbers, whatever machine runs them); the
// parallel cases run at the host's full GOMAXPROCS, recorded separately
// as gomaxprocs_par. At gomaxprocs_par == 1 the par cases would only be
// the sequential path under a parallel name, so they are neither measured
// nor recorded there, and "par:" floors are skipped.
//
// Each case also reports mb_per_sec, the table-streaming bandwidth the
// paper's §3.2.4 tableReadBytes model implies: the bytes the case's table
// passes must read (one full pass per query for seed, one per 32-query
// tile for tiled) divided by the measured time. It shows how close the
// answer kernel gets to memory bandwidth.
//
// With -compare FILE the run additionally gates against a committed
// baseline file: it fails (exit 1) if the tiled path's speedup over the
// seed path regresses more than 15% on any batch both files measured, or
// if tiled allocs/op leave single digits. Speedup ratios — not absolute
// ns/op — are compared because CI hardware differs from the machine that
// wrote the committed baseline; the ratio is the machine-normalized
// measure of the tiled path's health — across hosts running the same AES
// and accumulate kernels (aes_kernel, acc_kernel in the file): the seed
// path expands one node per kernel call and multiplies in the scalar loop,
// the tiled path expands whole blocks and accumulates in the asm tier, so
// on another kernel tier the ratio is a different quantity and is
// reported, not gated.
// -minqps "32=500" adds absolute
// tiled-throughput floors on top: a ratio gate alone cannot catch a
// kernel regression that slows seed and tiled alike. A "par:" prefix on a
// -minqps entry ("par:32=1000") floors the tiled-par case instead — CI
// uses it to require real parallel speedup on multi-core runners — and a
// kernel name as prefix binds the entry only where that kernel ran: an AES
// kernel ("vaes16:32=6000") against aes_kernel, an accumulate kernel
// ("amx:32=2500") against acc_kernel.
//
// Usage:
//
//	benchjson [-o BENCH_hotpath.json] [-rows 65536] [-lanes 16]
//	          [-batches 1,8,32,128] [-early 2] [-compare BENCH_hotpath.json]
//	          [-minqps "32=500,vaes16:32=2000,amx:32=2500,par:32=1000"]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"gpudpf/internal/dpf"
	"gpudpf/internal/seedbaseline"
	"gpudpf/internal/store"
	"gpudpf/internal/strategy"
)

// maxSpeedupRegression is the -compare gate: the tiled/seed speedup may
// drop at most this fraction below the committed baseline's.
const maxSpeedupRegression = 0.15

// maxTiledAllocs is the -compare gate on tiled allocs/op ("single digits").
const maxTiledAllocs = 9

// tileQueries mirrors strategy's query-tile width: the tiled path streams
// the table once per tile of this many queries, which is what its
// tableReadBytes (and so mb_per_sec) accounting divides by.
const tileQueries = 32

// Case is one measured benchmark configuration.
type Case struct {
	Name        string  `json:"name"`
	Batch       int     `json:"batch"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	QPS         float64 `json:"qps"`
	// MBPerSec is the table-streaming bandwidth implied by the §3.2.4
	// traffic model: the case's mandatory table reads divided by wall time.
	MBPerSec float64 `json:"mb_per_sec"`
}

// Output is the BENCH_hotpath.json schema.
type Output struct {
	GeneratedUnix int64  `json:"generated_unix"`
	GoOS          string `json:"goos"`
	GoArch        string `json:"goarch"`
	// GoMaxProcs is what the sequential cases ran under — always 1, since
	// they are pinned for comparability with the committed single-threaded
	// baseline. GoMaxProcsPar is the host's full parallelism, which the
	// tiled-par/tiled-paged-par cases run at.
	GoMaxProcs    int    `json:"gomaxprocs"`
	GoMaxProcsPar int    `json:"gomaxprocs_par"`
	Rows          int    `json:"rows"`
	Lanes         int    `json:"lanes"`
	PRG           string `json:"prg"`
	// AESKernel is dpf.AESKernel() on the measuring host. The seed path
	// expands one node per kernel call and the tiled path whole blocks, so
	// their ratio depends on which kernel ran.
	AESKernel string `json:"aes_kernel"`
	// AccKernel is strategy.AccumulateKernel() on the measuring host: only
	// the tiled path's table matmul runs on it, so it too scales the ratio.
	AccKernel string             `json:"acc_kernel"`
	Early     int                `json:"early"`
	Cases     []Case             `json:"cases"`
	Speedup   map[string]float64 `json:"speedup_tiled_over_seed"`
}

func main() {
	out := flag.String("o", "BENCH_hotpath.json", "output file")
	rows := flag.Int("rows", 1<<16, "table rows")
	lanes := flag.Int("lanes", 16, "uint32 lanes per row")
	batches := flag.String("batches", "1,8,32,128", "comma-separated batch sizes")
	early := flag.Int("early", dpf.DefaultEarlyBits, "early-termination depth for the tiled path's keys (0 = full-depth wire-v1)")
	compare := flag.String("compare", "", "committed baseline JSON to gate against (fail on >15% speedup regression or double-digit tiled allocs)")
	minQPS := flag.String("minqps", "", `absolute throughput floors, comma-separated "batch=qps" entries binding the tiled case (e.g. "32=500"); a "par:" prefix binds tiled-par instead, an AES or accumulate kernel name as prefix binds only on that kernel (e.g. "32=500,vaes16:32=2000,amx:32=2500,par:32=1000")`)
	flag.Parse()

	tab, err := strategy.NewTable(*rows, *lanes)
	if err != nil {
		log.Fatalf("benchjson: %v", err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := range tab.Data {
		tab.Data[i] = rng.Uint32()
	}
	prg := dpf.NewAESPRG()

	// The paged leg shares one file + store across batches: the cache
	// budget is a quarter of the table, so every pass reads at least three
	// quarters of its pages from the file.
	pagedDir, err := os.MkdirTemp("", "benchjson-paged-")
	if err != nil {
		log.Fatalf("benchjson: %v", err)
	}
	defer os.RemoveAll(pagedDir)
	pagedPath := filepath.Join(pagedDir, "table.gpdf")
	if err := store.WriteTableFile(pagedPath, tab); err != nil {
		log.Fatalf("benchjson: %v", err)
	}
	allTableBytes := int64(*rows) * int64(*lanes) * 4
	pb, err := store.OpenPaged(pagedPath, store.PagedConfig{CacheBytes: allTableBytes / 4})
	if err != nil {
		log.Fatalf("benchjson: %v", err)
	}
	defer pb.Close()
	pagedStore, err := store.NewPaged(pb)
	if err != nil {
		log.Fatalf("benchjson: %v", err)
	}
	pagedSnap := pagedStore.Acquire()
	defer pagedSnap.Release()

	// Sequential cases are pinned to one P so their numbers compare against
	// the committed baseline regardless of host width; the parallel cases
	// get the host's full width back.
	procs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(procs)

	o := Output{
		GeneratedUnix: time.Now().Unix(),
		GoOS:          runtime.GOOS,
		GoArch:        runtime.GOARCH,
		GoMaxProcs:    1,
		GoMaxProcsPar: procs,
		Rows:          *rows,
		Lanes:         *lanes,
		PRG:           prg.Name(),
		AESKernel:     dpf.AESKernel(),
		AccKernel:     strategy.AccumulateKernel(),
		Early:         *early,
		Speedup:       map[string]float64{},
	}

	for _, bs := range strings.Split(*batches, ",") {
		batch, err := strconv.Atoi(strings.TrimSpace(bs))
		if err != nil || batch <= 0 {
			log.Fatalf("benchjson: bad batch %q", bs)
		}
		// Same indices for both paths; the seed baseline predates the v2
		// wire format, so it gets full-depth keys while the tiled path
		// evaluates the configured format.
		indices := make([]uint64, batch)
		for q := range indices {
			indices[q] = uint64(rng.Intn(tab.NumRows))
		}
		seedKeys := genKeys(prg, tab, indices, 0, rng)
		tiledKeys := genKeys(prg, tab, indices, *early, rng)
		tableBytes := int64(*rows) * int64(*lanes) * 4
		// The seed baseline streams the table once per query; the tiled
		// path once per tile (§3.2.4's tableReadBytes model).
		tiles := int64((batch + tileQueries - 1) / tileQueries)
		// One Strategy value for every case, as a replica holds one: boxing
		// the struct per call would be counted as a hot-path allocation.
		var s strategy.Strategy = strategy.MemBoundTree{K: 128}
		runtime.GOMAXPROCS(1)
		seed := measure("seed", batch, int64(batch)*tableBytes, func() {
			seedbaseline.Run(prg, seedKeys, tab, 128)
		})
		tiled := measure("tiled", batch, tiles*tableBytes, func() {
			var ctr strategy.Counters
			if _, err := strategy.Run(s, prg, tiledKeys, tab.View(), &ctr); err != nil {
				log.Fatalf("benchjson: %v", err)
			}
		})
		tiledPaged := measure("tiled-paged", batch, tiles*tableBytes, func() {
			var ctr strategy.Counters
			if _, err := strategy.Run(s, prg, tiledKeys, pagedSnap, &ctr); err != nil {
				log.Fatalf("benchjson: %v", err)
			}
		})
		o.Cases = append(o.Cases, seed, tiled, tiledPaged)
		line := fmt.Sprintf("batch=%d: seed %.1fms (%d allocs/op), tiled %.1fms (%d allocs/op), tiled-paged %.1fms",
			batch, seed.NsPerOp/1e6, seed.AllocsPerOp, tiled.NsPerOp/1e6, tiled.AllocsPerOp, tiledPaged.NsPerOp/1e6)
		// A "-par" case on one P is the sequential path again: recording it
		// would file a sequential number under a parallel name.
		if procs > 1 {
			runtime.GOMAXPROCS(procs)
			var par strategy.Strategy = strategy.MemBoundTree{K: 128, Workers: procs}
			tiledPar := measure("tiled-par", batch, tiles*tableBytes, func() {
				var ctr strategy.Counters
				if _, err := strategy.Run(par, prg, tiledKeys, tab.View(), &ctr); err != nil {
					log.Fatalf("benchjson: %v", err)
				}
			})
			tiledPagedPar := measure("tiled-paged-par", batch, tiles*tableBytes, func() {
				var ctr strategy.Counters
				if _, err := strategy.Run(par, prg, tiledKeys, pagedSnap, &ctr); err != nil {
					log.Fatalf("benchjson: %v", err)
				}
			})
			o.Cases = append(o.Cases, tiledPar, tiledPagedPar)
			line += fmt.Sprintf(", tiled-par %.1fms, tiled-paged-par %.1fms", tiledPar.NsPerOp/1e6, tiledPagedPar.NsPerOp/1e6)
		}
		if tiled.NsPerOp > 0 {
			o.Speedup[strconv.Itoa(batch)] = seed.NsPerOp / tiled.NsPerOp
		}
		fmt.Printf("%s, speedup %.2fx\n", line, seed.NsPerOp/tiled.NsPerOp)
	}

	buf, err := json.MarshalIndent(o, "", "  ")
	if err != nil {
		log.Fatalf("benchjson: %v", err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		log.Fatalf("benchjson: %v", err)
	}
	fmt.Printf("wrote %s\n", *out)

	if *compare != "" {
		if err := compareBaseline(*compare, o); err != nil {
			log.Fatalf("benchjson: regression gate: %v", err)
		}
		fmt.Printf("regression gate vs %s: ok\n", *compare)
	}
	if *minQPS != "" {
		if err := checkThroughputFloors(*minQPS, o); err != nil {
			log.Fatalf("benchjson: throughput floor: %v", err)
		}
		fmt.Printf("throughput floors (%s): ok\n", *minQPS)
	}
}

// checkThroughputFloors enforces -minqps: each "batch=qps" entry is an
// absolute floor on the tiled case's measured throughput at that batch; a
// "par:" prefix binds the tiled-par case instead (and is skipped where
// gomaxprocs_par is 1: the case is not measured there), and a kernel name
// as prefix — AES ("vaes16:32=6000") or accumulate ("amx:32=2500") — makes
// the entry bind only on hosts that dispatch to that kernel: the tiers
// differ by more than the distance between a working and a broken pipeline
// on either one. Unlike the
// -compare ratio gate, this catches a kernel regression that slows the
// seed baseline and the tiled path proportionally.
func checkThroughputFloors(spec string, got Output) error {
	for _, entry := range strings.Split(spec, ",") {
		batchStr, qpsStr, ok := strings.Cut(strings.TrimSpace(entry), "=")
		if !ok {
			return fmt.Errorf("bad -minqps entry %q (want [kernel:][par:]batch=qps)", entry)
		}
		caseName, aes, acc := "tiled", got.AESKernel, got.AccKernel
		for {
			prefix, rest, ok := strings.Cut(batchStr, ":")
			if !ok {
				break
			}
			switch prefix {
			case "par":
				caseName = "tiled-par"
			case "vaes16", "aesni4", "purego":
				aes = prefix
			case "amx", "avx512", "avx2", "scalar":
				acc = prefix
			default:
				return fmt.Errorf("bad -minqps prefix %q in %q (want par, an AES kernel: vaes16, aesni4, purego, or an accumulate kernel: amx, avx512, avx2, scalar)", prefix, entry)
			}
			batchStr = rest
		}
		if aes != got.AESKernel || acc != got.AccKernel {
			fmt.Printf("floor %q skipped: this host's kernels are aes=%s acc=%s\n", entry, got.AESKernel, got.AccKernel)
			continue
		}
		if caseName == "tiled-par" && got.GoMaxProcsPar == 1 {
			fmt.Printf("floor %q skipped: gomaxprocs_par is 1, the par cases are not measured\n", entry)
			continue
		}
		batch, err := strconv.Atoi(batchStr)
		if err != nil {
			return fmt.Errorf("bad -minqps batch %q", batchStr)
		}
		floor, err := strconv.ParseFloat(qpsStr, 64)
		if err != nil || floor <= 0 {
			return fmt.Errorf("bad -minqps floor %q", qpsStr)
		}
		found := false
		for _, c := range got.Cases {
			if c.Name != caseName || c.Batch != batch {
				continue
			}
			found = true
			if c.QPS < floor {
				return fmt.Errorf("batch %d: %s %.1f QPS below floor %.1f", batch, caseName, c.QPS, floor)
			}
			fmt.Printf("batch %d: %s %.1f QPS >= floor %.1f\n", batch, caseName, c.QPS, floor)
		}
		if !found {
			return fmt.Errorf("-minqps batch %d (%s) was not measured (check -batches)", batch, caseName)
		}
	}
	return nil
}

// genKeys generates one party-0 key per index at the given termination
// depth (clamped to the table's tree like the protocol clients clamp).
func genKeys(prg dpf.PRG, tab *strategy.Table, indices []uint64, early int, rng *rand.Rand) []*dpf.Key {
	early = dpf.ClampEarly(early, tab.Bits())
	keys := make([]*dpf.Key, len(indices))
	for q, idx := range indices {
		k0, _, err := dpf.GenEarly(prg, idx, tab.Bits(), []uint32{1}, early, rng)
		if err != nil {
			log.Fatalf("benchjson: %v", err)
		}
		keys[q] = &k0
	}
	return keys
}

// compareBaseline diffs this run against a committed baseline: per batch
// present in both files, the tiled/seed speedup must not regress more than
// maxSpeedupRegression, and this run's tiled allocs/op must stay single
// digits.
func compareBaseline(path string, got Output) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base Output
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	// Ratios are only comparable on the same workload shape: a rows/lanes/
	// early/prg drift between the committed file and the CI flags would
	// make the 15% threshold meaningless, so it is an error, not a silent
	// pass.
	if base.Rows != got.Rows || base.Lanes != got.Lanes || base.Early != got.Early || base.PRG != got.PRG {
		return fmt.Errorf("baseline shape (rows=%d lanes=%d early=%d prg=%s) != this run (rows=%d lanes=%d early=%d prg=%s); regenerate %s or fix the flags",
			base.Rows, base.Lanes, base.Early, base.PRG, got.Rows, got.Lanes, got.Early, got.PRG, path)
	}
	// ... and on the same AES and accumulate kernels. A host on another
	// tier still gets the allocation gate below and the absolute -minqps
	// floors.
	if base.AESKernel != got.AESKernel || base.AccKernel != got.AccKernel {
		fmt.Printf("baseline measured on kernels aes=%q acc=%q, this host runs aes=%q acc=%q: speedup ratios not compared\n",
			base.AESKernel, base.AccKernel, got.AESKernel, got.AccKernel)
	} else {
		compared := 0
		for batch, baseline := range base.Speedup {
			current, ok := got.Speedup[batch]
			if !ok || baseline <= 0 {
				continue
			}
			compared++
			if current < baseline*(1-maxSpeedupRegression) {
				return fmt.Errorf("batch %s: tiled speedup %.2fx regressed >%.0f%% below committed %.2fx",
					batch, current, maxSpeedupRegression*100, baseline)
			}
			fmt.Printf("batch %s: speedup %.2fx vs committed %.2fx\n", batch, current, baseline)
		}
		if compared == 0 {
			return fmt.Errorf("no overlapping batches between this run and %s", path)
		}
	}
	for _, c := range got.Cases {
		if c.Name == "tiled" && c.AllocsPerOp > maxTiledAllocs {
			return fmt.Errorf("batch %d: tiled path allocates %d/op, single digits required", c.Batch, c.AllocsPerOp)
		}
	}
	return nil
}

// measure runs fn via testing.Benchmark (which auto-scales iterations to
// its time target; the loop must run exactly b.N times or the per-op
// numbers skew).
func measure(name string, batch int, tableBytes int64, fn func()) Case {
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fn()
		}
	})
	c := Case{
		Name:        name,
		Batch:       batch,
		NsPerOp:     float64(r.NsPerOp()),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
	if c.NsPerOp > 0 {
		c.QPS = float64(batch) / (c.NsPerOp / 1e9)
		c.MBPerSec = float64(tableBytes) / (c.NsPerOp / 1e9) / 1e6
	}
	return c
}
