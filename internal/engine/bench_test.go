package engine

import (
	"context"
	"fmt"
	"testing"

	"gpudpf/internal/dpf"
	"gpudpf/internal/gpu"
	"gpudpf/internal/strategy"
)

// BenchmarkEngineAnswer sweeps shards × workers over an 80k-row table at a
// small batch size — the regime where the seed's strictly sequential path
// underutilizes the host, since per-key parallelism alone cannot fill the
// cores. The "seedpath" case is exactly what pir.Server.Answer did before
// the engine existed: strategy.Run over the full padded DPF domain (the
// table's 80k rows pad to a 2^17 domain, so ~37% of its PRF work hits
// all-zero rows); shards=1 is the engine's sequential-equivalent
// configuration, which keeps the same calibrated full-domain walk. The
// multi-shard rows beat both on two counts: each shard's ranged walk
// prunes the padded tail (a win even at GOMAXPROCS=1 — roughly the 1.6×
// domain/rows ratio here), and on multi-core hosts the bounded worker pool
// fans the shards out for a further ~linear speedup. Run with:
//
//	go test ./internal/engine -bench EngineAnswer -benchtime 3x
func BenchmarkEngineAnswer(b *testing.B) {
	const rows, lanes, batch = 80 << 10, 16, 4
	tab := buildTable(b, rows, lanes, 1)
	k0s, _ := genKeys(b, tab, []uint64{3, 9999, 40000, 81000}[:batch], 2)

	b.Run("seedpath", func(b *testing.B) {
		prg := dpf.NewAESPRG()
		strat := strategy.Schedule(tab.Bits())
		keys := make([]*dpf.Key, len(k0s))
		for i, raw := range k0s {
			var k dpf.Key
			if err := k.UnmarshalBinary(raw); err != nil {
				b.Fatal(err)
			}
			keys[i] = &k
		}
		var ctr gpu.Counters
		b.ReportAllocs()
		b.SetBytes(int64(rows) * int64(lanes) * 4)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := strategy.Run(strat, prg, keys, tab.View(), &ctr); err != nil {
				b.Fatal(err)
			}
		}
	})

	for _, cfg := range []struct{ shards, workers int }{
		{1, 1},
		{2, 2},
		{4, 4},
		{8, 8},
		{16, 8},
	} {
		b.Run(fmt.Sprintf("shards=%d/workers=%d", cfg.shards, cfg.workers), func(b *testing.B) {
			r, err := NewReplica(tab, Config{Party: 0, Shards: cfg.shards, Workers: cfg.workers})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.SetBytes(int64(rows) * int64(lanes) * 4)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := r.Answer(context.Background(), k0s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
