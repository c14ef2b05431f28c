// Package gpudpf is a from-scratch Go reproduction of "GPU-based Private
// Information Retrieval for On-Device Machine Learning Inference"
// (Lam et al., ASPLOS 2024): two-server DPF-PIR with the paper's GPU
// execution strategies (modeled on a calibrated V100 device model — see
// internal/model), partial batch retrieval, and the PIR+ML co-design
// (hot-table split, embedding co-location, fixed query budgets), evaluated
// end to end on synthetic MovieLens / Taobao / WikiText-2 stand-ins.
//
// Serve and reproduce are two layers. The serving binaries (pirserver,
// pirclient) link the executor and the stack below; the reproduction —
// internal/model's six §3.2 cost models on the V100 and Xeon, codesign,
// ml, data, netsim and experiments — is linked only by benchall, gpudpf,
// the examples and tests (TestServingBinaryImports walks the import graph).
//
// Every package is internal, so an exported name that only tests call is
// dead weight, not API. TestExportedSurfaceHasCallers type-checks the
// non-test code of both modules (gpudpf and gpudpf/bench: binaries,
// examples and bench/ included), under the default build and under
// -tags purego, and fails on any exported name defined in gpudpf that
// neither build's non-test code uses; a method counts as used when its
// type implements an interface, of the module or the standard library,
// that has it. The exceptions are surfaceAllowlist in surface_test.go,
// each with its reason. The list only shrinks: the test also fails on an
// entry that has gained a caller or no longer exists.
//
// The server request path is unified behind a single layered stack,
// dpf → strategy → store/engine (→ shardnet) → pir/batchpir →
// core/serving → cmd:
//
//   - internal/dpf holds the distributed point function itself: key
//     generation, per-level expansion, and the pruned range evaluation
//     (EvalRange) that makes row-range sharding cheap. Keys terminate
//     early by default (§3.1): the tree walk stops ⌈log₂(λ/w)⌉ = 2 levels
//     above the leaves and each 128-bit terminal seed converts into four
//     32-bit output lanes (LeafValuesInto / LeafRangeInto), cutting PRF
//     work ~4× per query. The wire format is versioned by the magic's low
//     byte — v1 (0xDF01) is the legacy full-depth layout, v2 (0xDF02)
//     adds an early-depth byte, carries bits-early correction words and a
//     group-wide final correction, and v3 (0xDF03) carries v2's key at
//     BGI's λ+2 bits per level: a one-byte lane count and the two control
//     bits of every level packed four levels to a byte after the seeds
//     (266 bytes on a 2^16-row table, where v2 spent 279). All three
//     unmarshal, evaluate and re-marshal to their own bytes (golden aes128
//     fixtures pin each layout in CI), and each parses only in
//     its canonical form. Gen's keys marshal as v3, which servers serve:
//     a v2 key is refused by name, and so is a full-depth one wherever
//     the tree is deep enough to terminate early. The PRG layer is
//     batched: the PRF implements ExpandBatch, and StepBothBatch /
//     LeafValuesInto advance a whole tree frontier per call with zero
//     steady-state allocations. The one PRF this build computes, and so
//     the one a server serves (dpf.NewPRG refuses every other name, by
//     name), is aes128, fixed-key AES: the MMO^σ hash
//     of Guo et al. (S&P 2020), G(s) = (π_L(σ(s)) ⊕ σ(s), π_R(σ(s)) ⊕
//     σ(s)) with σ(x_hi‖x_lo) = (x_hi ⊕ x_lo)‖x_hi and π_L, π_R AES-128
//     under two public keys derived from SHA-256 of fixed labels, whose
//     schedules are expanded once at init — a node costs two encryptions
//     and no key schedule (AESPRG's comment states the security
//     assumption). AES — batched or scalar — goes through one
//     node-expansion entry point (aesExpandNodes: seeds in, raw children
//     out in leaf order) over two amd64 asm kernels: four nodes per
//     iteration on AES-NI, sixteen on AVX-512+VAES (π_L's round keys in
//     registers, π_R's as memory operands), picked once at init from
//     internal/cpufeat's CPUID/XCR0 probe (dpf.AESKernel names the
//     choice; pirserver logs it). The frontier step finishes in the same
//     registers: each tier has a step kernel that peels the children's
//     control bits, applies the correction word under the parent's bit
//     (child ^= cw.S & -t, masked rather than branched — parent bits are
//     pseudorandom, a branch on them mispredicts every other node) and
//     stores corrected children and their bits once, and a leaf kernel
//     that goes on to the §3.1 conversion for the default four-lane
//     terminal group and stores finished uint32 shares — child seeds of
//     the tree's widest level never reach memory. StepBothBatch and
//     StepLeafBatch (and FrontierScratch.ExpandLeaves / the membound
//     walker on top of them) dispatch to these; ~3.3 and ~4.0 ns per node
//     on the 16-wide tier against ~2.5 for the bare expansion, which is
//     the AES unit's bound of four blocks per cycle at 2.0 GHz (the
//     seed-keyed construction this replaced cost ~5.6, ~6.1 and ~5.0).
//     A pure-Go body — T-table AES, then the same correction as a
//     word-wise pass (correctChildren / correctConvert) — serves other
//     architectures, -tags purego and narrower terminal groups. The
//     kernel tests pin every tier and the Go body to G built from
//     crypto/aes, and G itself to known-answer vectors computed outside
//     Go.
//   - internal/model prices the paper's six execution strategies
//     (branch-parallel, level-by-level, the memory-bounded traversal
//     MemBound{K, Fused}, cooperative groups, multi-GPU, CPU baseline):
//     each is a Modeler (Name, Model) that the figures, the co-design
//     search and the modeled §3.2.5 scheduler (model.Schedule) price on
//     the V100 model, under a PRF entry of model.PRFs (Table 5's five
//     PRFs as {GPU, CPU} cycles-per-block constants — aes128's is
//     model.AES128; the other four exist only there); a test-only walker
//     pins every Model's PRF-block
//     count to the nodes its traversal expands, and MemBound's counts to
//     what the executor records where both count the same work.
//   - internal/strategy is the host executor. MemBoundTree{K, Workers} is
//     the one Strategy (Name, RunRangeInto); the engine runs
//     MemBoundTree{K: 128, Workers: GOMAXPROCS} at every table size.
//     RunRangeInto evaluates a batch against a row range of a TableView
//     and adds the partial answer shares — which sum over any partition
//     of the rows to the full answer, the seam a Cluster's shards are cut
//     on — into caller-provided buffers through pooled scratch, and
//     records host work only in strategy.Counters: PRF blocks walked and
//     table bytes streamed (one pass over the range per tile).
//     strategy.Run / strategy.RunRange are the allocate-then-call free
//     functions tests and benchmarks use.
//     MemBoundTree's memory-bounded descent (expandMemBound) feeds the one
//     tile loop (runTiles): leaf shares for a tile
//     of up to 32 queries are expanded first, then ONE streaming pass over
//     the row range accumulates all the tile's dot products
//     (accumulateTile), so a batch of B queries streams the table ⌈B/32⌉
//     times instead of B; the first error ends the batch. The accumulate
//     itself is the batched matmul answers[Q×lanes] += leaves[Q×rows] ·
//     table[rows×lanes] of §3.1/§3.2.4, and is kernel-dispatched like the
//     AES path: the shared cpufeat probe picks one asm tier at init
//     (strategy.AccumulateKernel names it; pirserver logs it as acc=) —
//     "avx512" register-blocks 4 queries × 4 ZMM vectors of answer
//     accumulators across a row block, loading each table vector once
//     and multiplying it by the four queries' leaf shares as embedded-
//     broadcast VPMULLD operands; "avx2" is the same family on YMM
//     (4 queries × 2 vectors); a 1–3-query remainder and batch-1 tiles
//     take the family's 2- and 1-query bodies (never a zero-padded
//     multiply) — the 1-query body is the YMM one on both tiers: with no
//     second query to reuse a table vector it is load-bound, and 512-bit
//     multiplies would drop the core's frequency for the batch-1 serving
//     code around it — and lanes past the last whole vector tile ride a
//     masked vector, so every lane count ≥ 1 runs in the kernel. The row block
//     is cut by bytes (128 KiB of table: streamed from memory once,
//     re-read from L2 by the tile's other query groups), which is 2048
//     rows at 64 B and 32 rows at 4 KiB. "amx" (a CPU with AMX-INT8
//     whose tile state Linux grants the process; picked like the others,
//     no flag) puts the matmul on the tile matrix unit. The identity:
//     with a leaf share a = Σ aᵢ·2^{8i} and a table word b = Σ bⱼ·2^{8j},
//     a·b mod 2^32 = Σ_{s≤3} 2^{8s}·Σ_{j≤s} a_{s−j}·bⱼ — ten u8×u8
//     products, which TDPBUUD sums four at a time into wrapping int32.
//     The operand layouts: TDPBUUD's B tile wants, per dword column n,
//     four bytes that share a contraction index group — and a table word's
//     four bytes are exactly that, so the table is the B operand as it
//     lies in memory (16 rows × 16 lanes per tile load, any stride, no
//     conversion, no second layout); the A operand is four byte planes of
//     the leaf shares, plane s holding (a_s, …, a_0, 0, …) per dword (the
//     byte-reversed share shifted right 8(3−s) bits — one VPSHUFB and
//     three shifts per 16 shares, done one step ahead of the step that
//     multiplies them), and accumulator tile C_s takes plane s, so four
//     TDPBUUD serve 16 rows × 16 lanes × 16 queries and ans += C0 + C1<<8 +
//     C2<<16 + C3<<24 at the end of a row panel. Lanes past a whole tile
//     are a narrower tile configuration, a short last query tile a
//     shorter A tile, the last rows%16 rows go to the avx512 body. The
//     16-query rule: the tier serves a chunk when the tile has at least
//     16 queries (one full A tile) and the chunk 64 rows; below that — the
//     4-key and 1-key tiles of a paged or single-key workload — the
//     avx512 bodies run as before. Every asm call configures and releases
//     its tile state, so none is live across a goroutine switch. Other
//     architectures, CPUs without AVX2 and -tags purego builds take the
//     scalar loop ("scalar"). All are bit-identical (mod-2^32 adds
//     commute; TestAccumulateTileKernelTiersMatchScalar calls every
//     compiled tier explicitly over lanes × tile sizes × row counts ×
//     fragmentations).
//     How a tile uses the cores is decided in that one loop, under one
//     budget, MemBoundTree.Workers (a replica sets it to GOMAXPROCS, so
//     the cores are GOMAXPROCS): a tile's keys expand on up to that many
//     goroutines; a tile with fewer keys than the budget also cuts each
//     key's leaf range into min(workers/keys, width/2048) sub-ranges at
//     terminal-group boundaries, each walking into its own slice of the
//     key's leaf row (the CPU form of §3.2.5's cooperative groups — what
//     moves batch-1 latency — at one extra root-to-cut path per cut); the
//     tile's table pass runs on the budget's workers through the view's
//     order-free Pass (the view picks the chunks and their order — row
//     blocks in RAM, resident pages first when paged), each worker
//     accumulating into its own answer buffer through the same tier
//     dispatch, merged lane-wise mod 2^32 afterwards; and with
//     a second tile to run, tile N+1's leaf expansion (PRF-bound)
//     overlaps tile N's table stream (memory-bound) through
//     double-buffered pooled leaf scratch. The walk stops at the table's
//     last row; the padded domain past it is never expanded. All of it is
//     bit-identical to the sequential pass for every worker count,
//     frontier width, fusion setting and fragmented view
//     (property-tested on both CI kernel legs).
//   - internal/store owns the serving table: an epoch-versioned Store
//     whose snapshots are chunk-iterable views. Readers pin an
//     immutable Snapshot (one atomic refcount — no lock, no waiting on
//     writers) and stream it through the strategy.TableView contract —
//     Pass covers a row range exactly once in contiguous runs, in an
//     order the backing picks (the accumulate is a sum mod 2^32, so
//     order is free): the in-RAM backing costs one callback per
//     worker's row block, a written epoch cuts those blocks at its
//     written pages, and paged epochs serve resident pages first. An
//     epoch is a page table (Lorie's shadow paging, ACM TODS 1977):
//     Apply / Prepare / Adopt copy only the pages a batch touches into
//     free slots — windows of the adopted array and pooled pages in RAM,
//     a scratch file beside a paged table's file — and share the rest,
//     so an update costs O(pages written), not O(table), and a slot no
//     retained epoch maps is reused. store.PagedBacking serves tables larger
//     than memory from a file through a fixed-size-page LRU cache
//     (pirserver -table-file/-pagecache — single servers and -shardnode
//     instances alike), bit-identical to the in-RAM path and
//     CI-enforced with the cache budget a quarter of the table. The
//     paged read path is allocation-bounded and reads the file as
//     little as it can: evicted page buffers recycle through a small
//     free pool (a steady-state pass allocates nothing per page —
//     AllocsPerRun-enforced), little-endian hosts read file bytes
//     directly into the page's word buffer with no staging copy, and
//     passes ride one cooperative scan per table (Zukowski et al.,
//     "Cooperative Scans", VLDB 2007): a pass that starts while others
//     are streaming joins them, and each page a worker slot holds — a
//     resident page before a read, the oldest pass's needs first — is
//     fed to every in-flight pass that still needs it, back to back
//     while it is hot in that core's cache, so two batches in flight
//     visit each page once between them instead of once each. A joined
//     pass's own workers park until older passes hand their slots on; a
//     slot waits on another's read only at its pass's tail, and one
//     slot's read overlaps another's accumulate. Rollback semantics
//     survive every backing shape: superseded backings recycle once
//     their last reader releases, an aborted epoch rolls back to its
//     retained predecessor, and aborted epoch NUMBERS are burned —
//     never reissued — so a stale partial can never epoch-match a
//     later, different table.
//   - internal/engine is the one seam every answer flows through, stated
//     as two roles (capability.go). Backend — Answer, UpdateBatch, Shape,
//     Counters — is what a front door serves; UpdateBatch is the one way
//     a row changes. Member — a Backend that also answers a row sub-range
//     at a named table epoch, joins the epoch handshake, states its
//     configuration and held rows, answers a Ping and donates its
//     snapshot — is what a Cluster's replica group or a shard node holds.
//     The type system requires the role; the only run-time assertions
//     left are a front door's two extras (KeyValidator,
//     EpochRetryCounter) and a receiving member's SnapshotSink.
//     Replica fills both roles: it owns its table through a store.Store
//     and answers each key batch — whole table or a member's row range —
//     with ONE RunRangeInto over ONE pinned snapshot (the whole batch sees
//     one epoch; a concurrent update neither blocks nor tears it). Its
//     default executor is MemBoundTree{K: 128, Workers: GOMAXPROCS};
//     how the batch spreads over the cores is the tile
//     loop's decision above, not the replica's. Unmarshaled keys are
//     pooled, so a steady-state Answer or AnswerRangeEpoch allocates
//     nothing beyond the returned answer slices (AllocsPerRun tests). The replica
//     pins one early-termination depth (Config.EarlyBits; default = what
//     pir.NewClient emits) and one key wire format (v3), and rejects
//     mismatched keys at validation with the configured PRF and the key's
//     parsed wire version in the error.
//     engine.Cluster, a Backend, splits one logical replica's row domain
//     across N groups of Members — in-process replicas or remote nodes —
//     fans each batch out concurrently (shard 0 on the calling goroutine,
//     the others on one goroutine each, the pass's state pooled, so a
//     one-key request's fan-out allocates nothing of its own) and merges
//     the per-shard partial sums lane-wise mod 2^32 into shard 0's,
//     bit-identical to a single process. The merge refuses a partial
//     that does not name its epoch (*ShardError) and partials of
//     different epochs (a batch that straddles an update commit re-fans;
//     a persistent mismatch fails with ErrMixedEpoch).
//     Cluster.UpdateBatch installs a multi-row update all-or-nothing
//     across every member via the epoch handshake (prepare everywhere,
//     commit only when all ack, a straggler aborts everywhere). Each
//     ClusterShard is a replica GROUP: batches load-balance across its
//     healthy members (least-loaded, rotating tiebreak), a member that
//     dies mid-batch is retried on the next, consecutive failures trip a
//     breaker, and a tripped member is re-admitted after a backoff
//     cooldown through Ping. A member that missed epochs is quarantined
//     until Cluster.Heal brings the shard's assigned rows to a healthy
//     peer's snapshot — rounds of engine.CatchUp, the same function
//     `pirserver -join` runs: one AdoptSnapshot when the member is a
//     SnapshotSink, else the epoch-update wire ops — and provably lands it
//     on the current epoch before lifting the quarantine. A shard with no
//     working member fails the batch with a *ShardError enumerating every
//     member by name with its own error; a member set that disagrees on
//     PRF, early depth, party or shape, or a member assigned rows it does
//     not hold, is refused at construction.
//   - internal/frame is the one wire framing both ports speak: a uint32
//     length refused over the port's cap before allocation, then a body
//     led by an op byte (a response: op, status); plus the body pieces
//     both protocols carry — key batches (a count, one width, and the
//     marshaled dpf keys back to back: a batch's keys share one format,
//     so one width; a mixed-width batch has no encoding and is refused by
//     name), row-write batches, answer-matrix words, the op,status,msg
//     error.
//   - internal/shardnet is the one wire protocol: one connection loop
//     (Server) and one pooled client (Client), in internal/frame frames,
//     over one op space. The client ops — answer, update-batch, stats —
//     work on any connection with no hello; the member ops — answer-range,
//     counters, the epoch handshake, ping, snapshot streaming — only after
//     one, on a node over an engine.Member (NewServer). The
//     hello is a fixed binary frame (no gob on the wire) pinning the
//     protocol version (6: the one-width key batch, key wire v3 and a
//     counters response of the two host counters), the PRF by name and
//     by construction ID (dpf.ConstructionAES128: a peer built with
//     another PRF, or another function under this one's name, is
//     refused),
//     the early-termination depth, the party and the row count — a
//     refusal names both sides' values — and the welcome states the
//     lanes, the rows the node holds and its table epoch. Answer-range
//     responses carry the epoch their partials were computed at; the
//     epoch RPCs extend the cluster's handshake across machines (batch
//     writes are held to the node's row range, like answers); Ping is the
//     liveness probe behind the cluster's health breaker; SnapshotMeta /
//     SnapshotChunk stream a node's pinned snapshot in capped,
//     offset-resumable frames (every chunk restates epoch, row range and
//     offset, and the client verifies the echo) so a stale member heals
//     from a healthy peer. Each connection's goroutine reads its frames,
//     runs them and writes the responses itself: a request is never
//     handed to another goroutine. Every cap is checked before
//     allocation, a refused frame is named to the peer before the
//     hang-up, and a stalled frame is cut off 10 s (ReadTimeout) after
//     its first byte; a read deadline is armed only for a frame not yet
//     whole in the connection's buffer, since only its read can block
//     (idle connections are exempt, a node's fresh connection must speak
//     within ReadTimeout). A departed peer cancels the node's in-flight
//     work: a dispatch that outlives a 1 ms grace starts a peek at the
//     connection, which cancels the work on EOF and is joined before the
//     connection's next read. The node's client retires a connection on a transport error and
//     backs off failed dials with seeded jitter, failing fast inside the
//     window; context deadlines propagate to connection deadlines. Write
//     and RPC-timeout deadlines are re-armed only once they fall short,
//     so a stalled write or RPC is cut between its timeout and 9/8 of
//     it.
//   - internal/pir and internal/batchpir are thin protocol adapters over
//     engine replicas: the two-server PIR protocol of §3.1 and the partial
//     batch retrieval scheme of §4.1 (bins answered concurrently). The
//     client half is one fetch, pir.TwoServer.Fetch, with pir.Client the
//     only key generator: a PBR round is that fetch over a
//     batchpir.BuildPlan's per-bin offsets, each party's batchpir.Server
//     behind pir.InProcess. A replayable key stream exists only as
//     pir.InsecureSeeded.
//     pir.Serve and pir.Dial are shardnet's front face: its client ops,
//     so the communication the paper counts is exact — n keys of k bytes
//     cost 13+n·k bytes up, an n × lanes answer 14+4·n·lanes down.
//     Requests are capped at 8 MiB and 4096 keys, responses at 64 MiB; a
//     shed request is serving.ErrOverloaded under errors.Is on the
//     client. A Remote holds one connection and sends its requests in
//     turn, with no RPC timeout, and once its stream broke it returns
//     that first error from then on. pir.Dial with pins (what cmd/pirclient and
//     cmd/pirload pass) says hello, so a PRF, depth, party or row-count
//     mismatch fails at dial instead of reconstructing garbage.
//   - internal/core wires the private on-device inference service: one
//     pir.TwoServer per co-design table (hot and full), so both parties
//     are queried concurrently through the same fetch; internal/serving adds the batching
//     front door — a request's keys are admitted or shed whole and
//     batched adjacent, and up to GOMAXPROCS batches run at once, each on
//     the goroutine that closed it (no worker) — and the load/latency
//     simulator of the paper's one-kernel-at-a-time device.
//   - cmd/pirserver serves real TCP traffic through the same
//     batcher+engine path the benchmarks measure; cmd/pirclient queries
//     it (and load-tests it with -repeat). With -shardnode i/n an
//     instance serves rows [i·rows/n, (i+1)·rows/n) over the shardnet
//     protocol (building, and paging in, only its own slice of the
//     deterministic table); with -group an instance holds no rows and
//     fronts a distributed replica over those nodes behind the unchanged
//     client protocol: shards separated by commas, each a replica group
//     of one or more members separated by | ("a,b" is one member per
//     shard), for transparent mid-batch failover. A shard node started with
//     -join peer pulls the peer's current snapshot over the v3 RPCs
//     before serving, so a replaced member catches up to the cluster's
//     epoch instead of rejoining stale.
//     -refresh/-refreshrows drive the transparent update path as a
//     deterministic background load — each generation's rows and values
//     derive from (seed, generation), so both parties rewrite identical
//     content; a single server installs each batch as one store epoch, a
//     cluster front runs the epoch handshake across every member of
//     every shard. SIGTERM/SIGINT shut down gracefully: stop accepting,
//     drain the in-flight batcher batches, close shardnet
//     serving/clients. One process uses the cores GOMAXPROCS grants
//     (there is no core flag; set the environment variable to bound it)
//     while one machine's cores and memory suffice — no serialization,
//     no network hop; choose a cluster when the table or the PRF load
//     outgrows one machine, at the cost of one LAN round-trip and the
//     key batch being sent to every shard node.
//
// The implementation lives under internal/ in the layers listed above; see
// examples/ for runnable scenarios, and bench_test.go plus
// internal/engine's BenchmarkEngineAnswer for the per-artifact benchmark
// targets.
//
// # Reading the bench JSON
//
// cmd/benchjson measures the seed per-query hot path against the
// tiled/batched one and writes BENCH_hotpath.json. Each entry in "cases"
// is one (path, batch) measurement: "seed" is the pre-tiling per-query
// implementation evaluating full-depth (wire v1) keys, "tiled" the
// current hot path evaluating keys at the "early" termination depth,
// "tiled-paged" the same path reading the table out-of-core at a
// quarter-table page cache (its ratio over "tiled" is the paging tax),
// and "tiled-par" / "tiled-paged-par" their parallel variants with the
// table stream fanned across a worker per core. The sequential cases
// are pinned to GOMAXPROCS=1 ("gomaxprocs") so they compare against the
// committed single-threaded baseline on any host; the par cases run at
// the machine's full width ("gomaxprocs_par") — where that is 1 they
// would be the sequential path under a parallel name, so benchjson
// neither measures nor records them. ns_per_op is one whole batch,
// qps = batch / seconds_per_op,
// mb_per_sec is the table-streaming bandwidth the §3.2.4 traffic model
// implies (mandatory table-pass bytes / wall time — how close the answer
// kernel gets to memory bandwidth), and allocs_per_op should stay in
// single digits for "tiled" (the seed path allocates per tree node).
// "speedup_tiled_over_seed" maps batch size → throughput ratio; CI's
// bench job regenerates the file as an artifact on every run, so the
// trajectory of these numbers is the repo's performance history — and its
// regression gate (benchjson -compare) fails the job if the speedup drops
// >15% below the committed file on any shared batch or tiled allocs/op
// leave single digits (ratios, not absolute ns/op: CI hardware differs
// from the machine that wrote the committed file), while -minqps adds an
// absolute batch-32 tiled-throughput floor that catches kernel
// regressions the ratio alone would miss (an entry prefixed with an AES
// or accumulate kernel name, "vaes16:32=..." or "amx:32=...", binds only
// on hosts dispatching to that kernel: the tiers are further apart than a
// working and a degraded pipeline are on either), and its "par:32=..." entry
// floors the tiled-par case at 2× the sequential floor — the multi-core
// CI runners must show a real row-block-parallel speedup even though the
// single-core baseline host cannot measure one. "aes_kernel" records
// which AES expansion kernel the measuring host ran (dpf.AESKernel); the
// seed path expands one node per kernel call and the tiled path whole
// blocks, so speedup ratios are compared only between runs on the same
// kernel — on another tier the gate reports the ratios and relies on the
// floors. "acc_kernel" records the accumulate tier the same way
// (strategy.AccumulateKernel): only the tiled path's table matmul runs on
// it, so a baseline from another tier is likewise reported, not gated.
// The committed file (vaes16 + amx, gomaxprocs_par 2) shows tiled
// batch-32 at 3.35 ms/op (~9550 QPS single-threaded, ~82× the seed path;
// 2.4 ms at two procs) — 4.4 ms on the avx512 accumulate tier, 6.7 ms
// before the fused AES step and leaf kernels, 7.7 ms before the
// register-blocked accumulate kernel, ~38 ms with the AESKEYGENASSIST
// pipeline. That shape (64-byte
// rows) is expansion-bound; CI's bench job therefore also runs the
// co-located wide-row shape once (-rows 16384 -lanes 1024 -batches 32
// -minqps "32=600,amx:32=2000": ~420 QPS on the one-query AVX2 kernel,
// ~1190 / ~1270 on the avx2 / avx512 tiers of the baseline host, ~3000
// on amx), where a silently disabled accumulate kernel falls through the
// floor — the amx entry binds only where acc_kernel is amx and sits
// between the avx512 figure and its own.
//
// # Reading the serving bench JSON
//
// cmd/pirload drives a running pirserver open-loop — arrivals fire at
// their scheduled offsets regardless of how many requests are in flight,
// so queueing collapse shows up as latency instead of silently throttling
// the workload — and writes BENCH_serving.json. "config" echoes the full
// workload parameterization (seed, client population, Zipf skew, offered
// qps, update fraction, conns); "schedule_fingerprint" hashes the expanded
// schedule, so two artifacts are comparable exactly when their
// fingerprints match (same seed ⇒ same fingerprint, bit-reproducibly).
// "offered_qps" is the schedule's arrival rate and "achieved_qps" counts
// only OK completions against wall time; their ratio is the
// machine-robust throughput signal. "latency" holds accepted-request
// p50/p95/p99/p999 in milliseconds measured from each op's SCHEDULED
// arrival (client-side queueing is charged to the server, as §6's
// serving experiments do); "counts" splits outcomes into ok / shed
// (admission refusals carrying the named overload error over the wire) /
// errors (everything else — any nonzero value fails the gate);
// "epoch_retries" is the server's mixed-epoch re-fan delta across the
// run, matching engine.Cluster's ErrMixedEpoch counter. The committed
// baseline (16384 rows, 400 offered QPS, 2% updates) achieves ~403/404
// QPS with p50 ≈ 4ms and p99 ≈ 8ms on the baseline host; CI's
// serving-bench job re-runs the same seed and gates on fingerprint
// equality, zero errors, achieved/offered within 0.10 of baseline, shed
// fraction within 0.05, and p99 inside max(4× baseline, 250ms).
//
// # CI matrix
//
// Beyond the amd64 vet/build/race-test job, CI runs the full test suite
// under -tags purego (the pure-Go AES fallback — the golden key fixtures
// prove it agrees byte-for-byte with the AES-NI path) and cross-builds
// linux/arm64 (with and without purego) and darwin/arm64, so the asm
// stubs and build-tag plumbing stay honest on every push. Two dedicated
// kernel-equivalence legs run the accumulate-tiers-vs-scalar (every
// compiled tier forced — avx2, avx512, amx — and the amx tier's scratch
// canaries and its run beside a GC-churning goroutine; a missing CPUID
// bit or a refused tile-data permission is skipped by name),
// AES-kernel-tiers-vs-crypto/aes (G's known-answer vectors included),
// fused-step-and-leaf-kernel-tiers-vs-the-two-pass-definition,
// branch-free-vs-scalar correction,
// fused-vs-unfused, and parallel-vs-sequential property tests once under
// GOAMD64=v3 (asm kernels alongside AVX2 compiler codegen) and once
// under -tags purego (every dispatch collapsed to its scalar fallback),
// so the row-block parallel accumulate's bit-identity holds over both
// kernels. The distributed
// job runs the cluster integration and fault-injection suites (shard
// killed mid-batch with and without surviving group members, a replica
// group degraded to one live member, slow shard against a context
// deadline, handshake mismatches, cluster updates dying at prepare or
// commit, a stale member quarantined and healed over the snapshot RPCs
// under refresh churn, concurrent Update/Answer hammering over the
// epoch-versioned store, and shardnet nodes serving their row slice
// from -table-file paged stores bit-identical to in-RAM nodes over
// TCP) under -race and once under -tags purego, and
// smoke-runs the fuzz targets (the dpf key parser seeded from the golden
// fixtures, and shardnet's codecs — one request and one response target
// over both op sets, the binary hello/welcome with every field at its
// bounds, and the snapshot-transfer frames both ways) for a short -fuzztime on
// every push. The serving-bench job boots a real pirserver with admission
// control, drives it with pirload at the committed baseline's seed, gates
// the resulting BENCH_serving.json against the committed one, and shuts
// the server down with SIGTERM (a non-zero exit from the drain fails the
// job). Steps select tests by -run, -bench and -fuzz patterns, and a
// pattern that names no test passes without running anything, so
// .github/check-selectors.sh fails the distributed job when any
// alternative of any selector in the workflow names no test of its
// step's packages under its step's build tags.
package gpudpf
