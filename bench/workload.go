package main

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"time"

	"gpudpf/internal/engine"
	"gpudpf/internal/pir"
)

// prgName is the PRF every workload serves and generates keys for.
const prgName = "aes128"

// workload is one fixed traffic mix over one table shape. Every field is
// a constant of the benchmark: a run's work is a function of the workload,
// the seed and -seconds only, never of how fast the host happens to be.
type workload struct {
	name string
	why  string

	rows, lanes int
	// k is the keys one request carries (one inference's embedding
	// look-ups) and the front's MaxBatch, so a request always fills whole
	// batches and the MaxDelay timer stays off the critical path.
	k int
	// cacheBytes > 0 serves the table from a file through
	// store.PagedBacking with this page-cache budget.
	cacheBytes int64
	// nodes > 0 splits the rows across that many in-process shardnet
	// nodes behind an engine.Cluster.
	nodes int
	// updateEvery > 0 makes every updateEvery-th request on connection 0
	// an UpdateBatch of updateRows rows (one table epoch each).
	updateEvery, updateRows int
	// reqPerSec sizes the timed phase: requests per connection per second
	// of -seconds budget, measured once on the reference 2-vCPU host. It
	// fixes the op count; it is not a rate limit (the loop is closed).
	reqPerSec float64
	// limit is the request latency limit ok_ratio is held to: about eight
	// times the reference median, so the host's ordinary two-fold slow
	// spells leave ok_ratio at 1 and only a stall or a failure moves it.
	limit time.Duration
}

var workloads = []workload{
	{
		name: "narrow-batch",
		why:  "2^16 x 64 B rows in cache, 32 keys/request: GGM expansion is ~95% of CPU, so a dpf gain shows and a strategy/store gain must not",
		rows: 1 << 16, lanes: 16, k: 32,
		reqPerSec: 24, limit: 320 * time.Millisecond,
	},
	{
		name: "wide-batch",
		why:  "2^14 x 4 KiB rows (64 MiB, past L2), 32 keys/request: accumulate and DRAM stream dominate, so a strategy gain shows and a dpf gain must not",
		rows: 1 << 14, lanes: 1024, k: 32,
		reqPerSec: 10.5, limit: 720 * time.Millisecond,
	},
	{
		name: "paged-update",
		why:  "the wide table paged from a file through a 16 MiB cache, 4 keys/request, a 16-row update every 10th request: the only workload that uses store's out-of-core reads and writes beside reads",
		rows: 1 << 14, lanes: 1024, k: 4, cacheBytes: 16 << 20,
		updateEvery: 10, updateRows: 16,
		reqPerSec: 52, limit: 160 * time.Millisecond,
	},
	{
		name: "cluster-single",
		why:  "256 KiB table on 2 shardnet nodes behind engine.Cluster, 1 key/request: compute is ~16% of CPU, so a wire-stack, allocation or fan-out change shows and dpf/strategy/store changes must not",
		rows: 1 << 10, lanes: 64, k: 1, nodes: 2,
		reqPerSec: 5000, limit: 10 * time.Millisecond,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// quick shrinks a workload to toy size for the package test: same stack,
// same traffic shape, 2^8 rows and a handful of requests.
func (w workload) quick() workload {
	w.rows = 1 << 8
	if w.lanes > 64 {
		w.lanes = 64
	}
	if w.cacheBytes > 0 {
		w.cacheBytes = int64(w.rows*w.lanes*4) / 4
	}
	if w.updateEvery > 0 {
		w.updateEvery = 4
	}
	w.limit = time.Minute // the test asserts no wall-clock value
	return w
}

const (
	// rounds is how many fresh-process rounds one run takes the median of.
	rounds = 5
	// warmShare is the warm-up's op count as a share of the timed phase's.
	warmShare = 0.2
	// minSampleKeys is how many timed-phase keys per round the reference
	// checker verifies at least.
	minSampleKeys = 64
)

// requestsPerRound is the timed requests per connection in one round of a
// run that was given seconds of measuring time.
func (w workload) requestsPerRound(seconds int) int {
	n := int(w.reqPerSec*float64(seconds)/rounds + 0.5)
	if n < 2 {
		n = 2
	}
	return n
}

// Seeded streams. Every random choice draws from a PCG keyed by the run's
// seed and one of these stream ids, so the same seed gives the same table,
// rows, keys and writes, and changing one stream's consumption cannot
// shift another's.
const (
	streamRows   = 1 << 32 // + round<<8 + conn: which rows a connection asks for
	streamKeys   = 2 << 32 // + round<<8 + conn: DPF key material
	streamWrites = 3 << 32 // + round: which rows an update batch overwrites
	streamTable  = 4 << 32 // + gen<<24 + row: one row's content at one write generation
)

func pcg(seed, stream uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, stream)) }

// pcgReader adapts a seeded PCG to the io.Reader dpf.Gen draws key
// material from.
type pcgReader struct{ r *rand.Rand }

func (p pcgReader) Read(b []byte) (int, error) {
	for i := 0; i < len(b); i += 8 {
		v := p.r.Uint64()
		for j := i; j < i+8 && j < len(b); j++ {
			b[j] = byte(v)
			v >>= 8
		}
	}
	return len(b), nil
}

// fillRow writes the content row has after its gen-th overwrite (gen 0 is
// the initial table). The reference checker regenerates rows from this
// instead of keeping a second copy of the table.
func fillRow(seed uint64, row, gen int, dst []uint32) {
	r := rand.NewPCG(seed, streamTable+uint64(gen)<<24+uint64(row))
	for i := 0; i+1 < len(dst); i += 2 {
		v := r.Uint64()
		dst[i], dst[i+1] = uint32(v), uint32(v>>32)
	}
	if len(dst)%2 == 1 {
		dst[len(dst)-1] = uint32(r.Uint64())
	}
}

// op is one client request: a K-key read or an update batch.
type op struct {
	// rows are the rows a read asks for, or an update overwrites.
	rows []uint64
	// keys0 goes to the server under test (party 0); keys1 is the other
	// party's half, kept so the reference can compute party 1's share.
	keys0, keys1 [][]byte
	// writes is set for an update; gen is its 1-based generation.
	writes []engine.RowWrite
	gen    int
	// asOf is how many update batches had been installed when a
	// connection-0 read was sent: exact, because connection 0 is the only
	// writer and waits for every reply.
	asOf int
}

func (o *op) isUpdate() bool { return o.writes != nil }

// plan is everything a round sends, generated before set-up starts.
type plan struct {
	w workload
	// conns[c] is connection c's op sequence: warm[c] warm-up ops, then
	// the timed ops, then (connection 0 only) post read-backs of the last
	// update batch.
	conns [][]op
	warm  []int
	post  int
	// history[row] lists the generations that overwrote row, ascending.
	history map[int][]int
	keys    int // keys generated, for dpf.gen_us_per_key
	keyLen  int // bytes in one marshaled key
}

// genAt is the generation of row's content once asOf update batches have
// been installed.
func (p *plan) genAt(row, asOf int) int {
	h := p.history[row]
	i := sort.SearchInts(h, asOf+1)
	if i == 0 {
		return 0
	}
	return h[i-1]
}

// makePlan derives a round's requests from the seed. timed is the timed
// requests per connection.
func makePlan(w workload, seed uint64, round, timed int) (*plan, error) {
	p := &plan{w: w, history: map[int][]int{}}
	warm := int(float64(timed)*warmShare + 0.5)
	if warm < 1 {
		warm = 1
	}
	writes := pcg(seed, streamWrites+uint64(round))
	gen := 0
	const conns = 2
	for c := 0; c < conns; c++ {
		stream := uint64(round)<<8 + uint64(c)
		rows := pcg(seed, streamRows+stream)
		client, err := pir.NewClient(prgName, w.rows, pcgReader{pcg(seed, streamKeys+stream)})
		if err != nil {
			return nil, err
		}
		read := func(idx []uint64, asOf int) (op, error) {
			k0, k1, err := client.QueryBatch(idx)
			p.keys += len(idx)
			if err == nil {
				p.keyLen = len(k0[0])
			}
			return op{rows: idx, keys0: k0, keys1: k1, asOf: asOf}, err
		}
		var ops []op
		var lastWritten []uint64
		for i := 0; i < warm+timed; i++ {
			if c == 0 && w.updateEvery > 0 && i%w.updateEvery == w.updateEvery-1 {
				gen++
				u := op{gen: gen}
				for _, r := range writes.Perm(w.rows)[:w.updateRows] {
					vals := make([]uint32, w.lanes)
					fillRow(seed, r, gen, vals)
					u.rows = append(u.rows, uint64(r))
					u.writes = append(u.writes, engine.RowWrite{Row: uint64(r), Vals: vals})
					p.history[r] = append(p.history[r], gen)
				}
				ops = append(ops, u)
				lastWritten = u.rows
				continue
			}
			idx := make([]uint64, w.k)
			for j := range idx {
				idx[j] = rows.Uint64N(uint64(w.rows))
			}
			o, err := read(idx, gen)
			if err != nil {
				return nil, err
			}
			ops = append(ops, o)
		}
		// Read back every row the last update batch touched.
		for len(lastWritten) > 0 {
			n := min(w.k, len(lastWritten))
			idx := append(make([]uint64, 0, w.k), lastWritten[:n]...)
			for len(idx) < w.k {
				idx = append(idx, lastWritten[0])
			}
			o, err := read(idx, gen)
			if err != nil {
				return nil, err
			}
			ops = append(ops, o)
			p.post++
			lastWritten = lastWritten[n:]
		}
		p.conns = append(p.conns, ops)
		p.warm = append(p.warm, warm)
	}
	return p, nil
}
