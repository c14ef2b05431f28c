package codesign

import (
	"time"

	"gpudpf/internal/dpf"
	"gpudpf/internal/model"
)

// Cost is the per-inference protocol cost of a layout (one client
// inference against both servers).
type Cost struct {
	// PRFBlocks is the server-side PRF work per server per inference.
	PRFBlocks int64
	// UpBytes and DownBytes are total communication (both servers).
	UpBytes, DownBytes int64
	// Queries is the effective total query count.
	Queries int
}

// CommBytes is the total communication per inference.
func (c Cost) CommBytes() int64 { return c.UpBytes + c.DownBytes }

// Cost computes the layout's per-inference cost model.
func (l *Layout) Cost() Cost {
	var c Cost
	lanes := l.GroupLanes()
	addTable := func(cfg interface {
		NumBins() int
		BinBits() int
	}) {
		bins := int64(cfg.NumBins())
		bits := cfg.BinBits()
		// Per-bin PIR cost in the default early-terminated key format the
		// batchpir clients emit: the walk stops early levels up (§3.1), so
		// the per-bin expansion is 2·(domain>>early)-2 blocks and the key
		// is the wire-v2 size.
		early := dpf.DefaultEarly(bits, 1)
		domain := int64(1) << uint(bits)
		c.PRFBlocks += bins * (2*(domain>>uint(early)) - 2)
		c.UpBytes += bins * int64(dpf.MarshaledSizeEarly(bits, 1, early)) * 2
		c.DownBytes += bins * int64(lanes) * 4 * 2
		c.Queries += int(bins)
	}
	if l.Params.HotRows > 0 {
		addTable(l.HotCfg)
	}
	addTable(l.FullCfg)
	return c
}

// Throughput models end-to-end server throughput for this layout on the
// device, tuning the inference batch size under an optional PIR-latency
// budget. Returns the best QPS (inferences/second), its batch latency, and
// the chosen batch.
func (l *Layout) Throughput(dev *model.Device, prg dpf.PRG, maxLatency time.Duration) (qps float64, latency time.Duration, batch int, err error) {
	lanes := l.GroupLanes()
	model := func(cfg interface {
		NumBins() int
		BinBits() int
	}, b int) (time.Duration, error) {
		bits := cfg.BinBits()
		strat := model.Schedule(bits)
		rep, err := strat.Model(dev, prg, bits, b*cfg.NumBins(), lanes)
		if err != nil {
			return 0, err
		}
		return rep.Latency, nil
	}
	var bestQPS float64
	var bestLat time.Duration
	bestBatch := 0
	for b := 1; b <= 1<<15; b *= 2 {
		lat, merr := model(l.FullCfg, b)
		if merr != nil {
			break
		}
		if l.Params.HotRows > 0 {
			hotLat, herr := model(l.HotCfg, b)
			if herr != nil {
				break
			}
			lat += hotLat
		}
		if maxLatency > 0 && lat > maxLatency {
			break
		}
		if q := float64(b) / lat.Seconds(); q > bestQPS {
			bestQPS, bestLat, bestBatch = q, lat, b
		}
	}
	if bestBatch == 0 {
		return 0, 0, 0, errNoBatch(maxLatency)
	}
	return bestQPS, bestLat, bestBatch, nil
}

type errNoBatch time.Duration

func (e errNoBatch) Error() string {
	return "codesign: no batch size fits latency budget " + time.Duration(e).String()
}
