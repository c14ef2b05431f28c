package engine

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"gpudpf/internal/strategy"
)

// BenchmarkEngineAnswer sweeps the replica's worker budget {1, GOMAXPROCS}
// × batch {1, 4, 32} over an 80k-row table. The walk covers rows [0, 80k)
// only: the 2^17 domain's padded tail holds no row and is never expanded.
// A batch narrower than the budget splits each key's leaf range across the
// cores, which is what moves batch-1 latency; wider batches fan out by
// query and by row block. Run with:
//
//	go test ./internal/engine -run '^$' -bench EngineAnswer -benchtime 20x
func BenchmarkEngineAnswer(b *testing.B) {
	const rows, lanes = 80 << 10, 16
	tab := buildTable(b, rows, lanes, 1)
	indices := make([]uint64, 32)
	for i := range indices {
		indices[i] = uint64(i * 2557 % rows)
	}
	for _, batch := range []int{1, 4, 32} {
		k0s, _ := genKeys(b, tab, indices[:batch], 2)
		for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
			b.Run(fmt.Sprintf("batch=%d/workers=%d", batch, workers), func(b *testing.B) {
				s := strategy.MemBoundTree{K: strategy.DefaultK, Workers: workers}
				r, err := NewReplica(tab, Config{Party: 0, Strategy: s})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := r.Answer(context.Background(), k0s); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
