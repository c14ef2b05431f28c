package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// percentile is the nearest-rank p-quantile (0 < p <= 1) of vals; it sorts
// a copy. An empty input gives 0.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// median is the middle value, or the mean of the middle two.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// spread is (max-min)/median: how far one run's rounds sit apart.
func spread(vals []float64) float64 {
	m := median(vals)
	if len(vals) == 0 || m == 0 {
		return 0
	}
	lo, hi := vals[0], vals[0]
	for _, v := range vals {
		lo, hi = min(lo, v), max(hi, v)
	}
	return (hi - lo) / m
}

// quartileSpread is the contract's steadiness measure: the distance
// between the first and third quartile as a share of the median, with the
// quartiles Python's statistics.quantiles(values, n=4) gives (the
// "exclusive" method).
func quartileSpread(vals []float64) float64 {
	m := median(vals)
	if len(vals) < 2 || m == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4 // 1-based
		j := int(pos)
		j = min(max(j, 1), len(s)-1)
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return (q(3) - q(1)) / m
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's high-water resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// loopTime is what timeLoop measured per call of its body.
type loopTime struct {
	wallPerOp, cpuPerOp float64 // seconds
	err                 error
}

// timeLoop calls fn(0), fn(1), ... for at least d (and at least three
// times) and reports wall and process-CPU seconds per call.
func timeLoop(d time.Duration, fn func(i int) error) loopTime {
	if err := fn(0); err != nil { // untimed first call: page-in, pools
		return loopTime{err: err}
	}
	start, cpu0 := time.Now(), cpuSeconds()
	n := 0
	for n < 3 || time.Since(start) < d {
		if err := fn(n); err != nil {
			return loopTime{err: err}
		}
		n++
	}
	wall, cpu := time.Since(start).Seconds(), cpuSeconds()-cpu0
	return loopTime{wallPerOp: wall / float64(n), cpuPerOp: cpu / float64(n)}
}

// environment describes the host and build, so a silently disabled kernel
// (no AES-NI, no AVX2, a purego build) is visible beside the numbers.
func environment() string {
	flags := map[string]bool{}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(line, "flags") {
				for _, f := range strings.Fields(line) {
					flags[f] = true
				}
				break
			}
		}
	}
	tags, goamd64 := "(none)", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "-tags":
				tags = s.Value
			case "GOAMD64":
				goamd64 = s.Value
			}
		}
	}
	return fmt.Sprintf("env: nproc=%d GOMAXPROCS=%d %s %s/%s GOAMD64=%s cpu_flags[aes=%t avx2=%t] build_tags=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH,
		goamd64, flags["aes"], flags["avx2"], tags)
}

// cpuJiffies is the host-wide CPU accounting of /proc/stat's first line.
type cpuJiffies struct{ steal, total float64 }

// readSteal reads how much CPU time the hypervisor has withheld from this
// machine so far (zero where /proc/stat is unreadable or has no such
// column).
func readSteal() cpuJiffies {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuJiffies{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuJiffies{}
	}
	var j cpuJiffies
	for i, f := range fields[1:9] { // user nice system idle iowait irq softirq steal
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return cpuJiffies{}
		}
		j.total += v
		if i == 7 {
			j.steal = v
		}
	}
	return j
}

// ratioSince is the share of all CPU time since earlier that was stolen.
func (j cpuJiffies) ratioSince(earlier cpuJiffies) float64 {
	if j.total <= earlier.total {
		return 0
	}
	return (j.steal - earlier.steal) / (j.total - earlier.total)
}
