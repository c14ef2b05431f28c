package serving

import (
	"context"
	"errors"

	"gpudpf/internal/engine"
)

// NewEngineBatcher builds a Batcher whose formed batches execute on an
// engine backend — the production request path: cmd/pirserver's TCP
// front end, the benchmarks, and the simulator all meet the same
// engine.Backend seam here.
func NewEngineBatcher(policy Policy, be engine.Backend) (*Batcher, error) {
	if be == nil {
		return nil, errors.New("serving: nil backend")
	}
	return NewBatcher(policy, func(batch [][]byte) ([][]uint32, error) {
		return be.Answer(context.Background(), batch)
	})
}
