package serving

import (
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// BatchLatency models one batch's device execution time as a function of
// batch size (e.g. a closure over strategy.Model).
type BatchLatency func(batch int) time.Duration

// LoadPoint is one offered-load measurement from Simulate.
type LoadPoint struct {
	// OfferedQPS is the Poisson arrival rate; CompletedQPS the measured
	// completion rate.
	OfferedQPS, CompletedQPS float64
	// Mean, P50, P95 and P99 are request latencies (arrival → batch
	// completion).
	Mean, P50, P95, P99 time.Duration
	// MeanBatch is the average formed batch size; Utilization is the
	// device busy fraction.
	MeanBatch   float64
	Utilization float64
}

func (p LoadPoint) String() string {
	return fmt.Sprintf("offered %.0f QPS → completed %.0f QPS, p50 %v p99 %v, batch %.1f, util %.0f%%",
		p.OfferedQPS, p.CompletedQPS, p.Mean.Round(10*time.Microsecond), p.P99.Round(10*time.Microsecond),
		p.MeanBatch, p.Utilization*100)
}

// Simulate runs a discrete-event simulation of the batcher in front of one
// device: Poisson arrivals at rate qps for the given duration, batches
// formed under policy (flush at MaxBatch, or MaxDelay after the oldest
// pending arrival), served FIFO one batch at a time with the modeled batch
// latency — the paper's GPU, which executes one kernel at a time (§3.2.1),
// not Batcher's one batch per CPU core. Deterministic given rng.
func Simulate(rng *rand.Rand, qps float64, duration time.Duration, policy Policy, lat BatchLatency) (LoadPoint, error) {
	if err := policy.Validate(); err != nil {
		return LoadPoint{}, err
	}
	if qps <= 0 || duration <= 0 {
		return LoadPoint{}, fmt.Errorf("serving: need positive load and duration")
	}
	// Generate arrivals.
	var arrivals []float64 // seconds
	t := 0.0
	horizon := duration.Seconds()
	for {
		t += rng.ExpFloat64() / qps
		if t >= horizon {
			break
		}
		arrivals = append(arrivals, t)
	}
	if len(arrivals) == 0 {
		return LoadPoint{}, fmt.Errorf("serving: no arrivals at %.2f QPS over %v", qps, duration)
	}

	var latencies []float64
	var busy float64
	var batches int
	deviceFree := 0.0
	i := 0
	for i < len(arrivals) {
		// Form the next batch starting from arrival i.
		oldest := arrivals[i]
		flushAt := oldest + policy.MaxDelay.Seconds()
		// The batch closes at the earlier of: the MaxBatch-th arrival, or
		// the deadline — but never before the device is free (requests
		// arriving while the device is busy join the batch).
		end := i
		closeTime := flushAt
		for end+1 < len(arrivals) && end-i+1 < policy.MaxBatch {
			next := arrivals[end+1]
			if next > flushAt && next > deviceFree {
				break
			}
			end++
		}
		if end-i+1 >= policy.MaxBatch {
			closeTime = arrivals[end]
		}
		if closeTime < deviceFree {
			closeTime = deviceFree
		}
		// Late joiners up to the actual service start, bounded by
		// MaxBatch.
		for end+1 < len(arrivals) && end-i+1 < policy.MaxBatch && arrivals[end+1] <= closeTime {
			end++
		}
		size := end - i + 1
		serviceStart := closeTime
		serviceTime := lat(size).Seconds()
		completion := serviceStart + serviceTime
		for j := i; j <= end; j++ {
			latencies = append(latencies, completion-arrivals[j])
		}
		busy += serviceTime
		batches++
		deviceFree = completion
		i = end + 1
	}

	sort.Float64s(latencies)
	pick := func(q float64) time.Duration {
		idx := int(q * float64(len(latencies)-1))
		return time.Duration(latencies[idx] * float64(time.Second))
	}
	var sum float64
	for _, l := range latencies {
		sum += l
	}
	span := deviceFree
	if horizon > span {
		span = horizon
	}
	return LoadPoint{
		OfferedQPS:   qps,
		CompletedQPS: float64(len(latencies)) / span,
		Mean:         time.Duration(sum / float64(len(latencies)) * float64(time.Second)),
		P50:          pick(0.50),
		P95:          pick(0.95),
		P99:          pick(0.99),
		MeanBatch:    float64(len(latencies)) / float64(batches),
		Utilization:  busy / span,
	}, nil
}
