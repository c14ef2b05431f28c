package main

import (
	"fmt"
	"strings"
)

// repeatability is the check a benchmark must pass before its numbers can
// judge anything: two sets of ten runs per workload, every run with
// another seed and the workloads' runs interleaved, exactly as the driver
// measures. For each gated metric it prints both sets' medians, each set's
// quartile spread as a share of its median, and how much worse the second
// median is than the first, against the metric's bound. A spread above the
// bound (set-up time excepted) or a second median worse by more than the
// bound fails the check; "wide" marks anything above a third of the bound
// (spread) or half of it (medians), the margin the bounds were set with.
func (r *runner) repeatability() error {
	const sets, runs = 2, 10
	// vals[set][workload][metric] collects one value per run.
	var vals [sets]map[string]map[string][]float64
	for set := range vals {
		vals[set] = map[string]map[string][]float64{}
		for i := 0; i < runs; i++ {
			r.seed = uint64(1 + set*runs + i)
			for _, w := range workloads {
				results, err := r.endToEndRounds([]workload{w})
				if err != nil {
					return err
				}
				medians, ta := summarize(results[w.name])
				if len(ta.problems) > 0 {
					return fmt.Errorf("%s seed %d is not correct:\n  %s", w.name, r.seed, strings.Join(ta.problems, "\n  "))
				}
				if vals[set][w.name] == nil {
					vals[set][w.name] = map[string][]float64{}
				}
				for name, v := range medians {
					vals[set][w.name][name] = append(vals[set][w.name][name], v)
				}
				fmt.Printf("set %d run %2d %-15s seed %2d  throughput %.6g keys/s  p50 %.5g ms\n",
					set+1, i+1, w.name, r.seed, medians["throughput_keys_per_s"], medians["latency_p50_ms"])
			}
		}
	}

	fmt.Printf("\n%-15s %-22s %6s | %12s %7s | %12s %7s | %8s\n",
		"workload", "metric", "bound", "median 1", "iqr 1", "median 2", "iqr 2", "2 worse")
	failed := 0
	for _, w := range workloads {
		for _, spec := range endToEnd {
			a, b := vals[0][w.name][spec.name], vals[1][w.name][spec.name]
			ma, mb := median(a), median(b)
			worse := (mb - ma) / ma
			if spec.higher {
				worse = -worse
			}
			sa, sb := quartileSpread(a), quartileSpread(b)
			verdict := "ok"
			gated := max(sa, sb)
			if spec.name == "setup_s" {
				gated = 0 // the driver holds set-up time to its medians only
			}
			switch {
			case gated > spec.bound || worse > spec.bound:
				verdict = "FAIL"
				failed++
			case max(sa, sb) > spec.bound/3 || worse > spec.bound/2:
				verdict = "wide"
			}
			fmt.Printf("%-15s %-22s %5.1f%% | %12.6g %6.2f%% | %12.6g %6.2f%% | %+7.2f%% %s\n",
				w.name, spec.name, spec.bound*100, ma, sa*100, mb, sb*100, worse*100, verdict)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d metric x workload pairs do not repeat within their bound", failed)
	}
	return nil
}
