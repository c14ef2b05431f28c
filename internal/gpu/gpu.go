// Package gpu holds the name bench/ (closed to library changes) still
// spells the executor's host counters by. The paper's device models are
// package model.
package gpu

import "gpudpf/internal/strategy"

// Counters is the name bench/ still spells strategy.Counters by.
type Counters = strategy.Counters
