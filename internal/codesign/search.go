package codesign

import (
	"fmt"
	"math/rand/v2"
	"time"

	"gpudpf/internal/model"
)

// Space is the grid the planner sweeps (§4.2 "Co-design Parameter
// Selection").
type Space struct {
	// Cs are co-location widths to try (include 0 for off).
	Cs []int
	// HotFracs are hot-table sizes as fractions of the grouped table
	// (include 0 for off).
	HotFracs []float64
	// QHots and QFulls are the query budgets to try.
	QHots, QFulls []int
}

// DefaultSpace is a compact grid covering the paper's observed good
// regions (Q_hot ≈ 10–20% of table, C ≈ 1–5).
func DefaultSpace() Space {
	return Space{
		Cs:       []int{0, 1, 2, 4},
		HotFracs: []float64{0, 0.1, 0.2},
		QHots:    []int{2, 4, 8},
		QFulls:   []int{1, 2, 4, 8, 16},
	}
}

// Budgets caps candidates the way the paper's experiments do (§5.1:
// <300 KB communication, <300 ms latency unless stated otherwise).
type Budgets struct {
	// CommBytes caps per-inference communication (0 = unlimited).
	CommBytes int64
	// Latency caps the server-side batch latency (0 = unlimited).
	Latency time.Duration
}

// Candidate is one evaluated grid point.
type Candidate struct {
	Params  Params
	Layout  *Layout
	Quality float64
	Cost    Cost
	// QPS/Latency/Batch are the modeled serving numbers on the device.
	QPS     float64
	Latency time.Duration
	Batch   int
}

// Searcher wires the application into the grid search.
type Searcher struct {
	// Items and Dim describe the protected table.
	Items, Dim int
	// Freq and Cooccur are training-split statistics (Cooccur lists must
	// be at least max(Space.Cs) long per item; see data.Cooccur).
	Freq    []int64
	Cooccur [][]uint64
	// Quality evaluates a layout on held-out data (e.g. simulate drops on
	// test traces and run the model). Higher must be better; pass
	// negated perplexity for LM tasks.
	Quality func(l *Layout) (float64, error)
	// Device and PRG drive the throughput model.
	Device *model.Device
	PRG    model.PRF
	// Rng drives dummy planning during simulation.
	Rng *rand.Rand
}

// Search evaluates the grid and returns every candidate that fits the
// budgets, sorted by descending QPS.
func (s *Searcher) Search(space Space, budgets Budgets) ([]Candidate, error) {
	if s.Quality == nil {
		return nil, fmt.Errorf("codesign: Searcher needs a Quality function")
	}
	var out []Candidate
	for _, c := range space.Cs {
		for _, hf := range space.HotFracs {
			qhots := space.QHots
			if hf == 0 {
				qhots = []int{0}
			}
			for _, qh := range qhots {
				for _, qf := range space.QFulls {
					groups := ceilDiv(s.Items, c+1)
					p := Params{
						C:       c,
						HotRows: int(hf * float64(groups)),
						QHot:    qh,
						QFull:   qf,
					}
					if p.HotRows == 0 {
						p.QHot = 0
					}
					if p.HotRows > 0 && p.QHot == 0 {
						continue
					}
					cand, err := s.evaluate(p, budgets)
					if err != nil {
						continue // infeasible point (OOM, budget)
					}
					out = append(out, cand)
				}
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("codesign: no grid point fits the budgets")
	}
	sortByQPS(out)
	return out, nil
}

func (s *Searcher) evaluate(p Params, budgets Budgets) (Candidate, error) {
	l, err := BuildLayout(s.Items, s.Dim, s.Freq, s.Cooccur, p)
	if err != nil {
		return Candidate{}, err
	}
	cost := l.Cost()
	if budgets.CommBytes > 0 && cost.CommBytes() > budgets.CommBytes {
		return Candidate{}, fmt.Errorf("codesign: comm %d over budget", cost.CommBytes())
	}
	qps, lat, batch, err := l.Throughput(s.Device, s.PRG, budgets.Latency)
	if err != nil {
		return Candidate{}, err
	}
	q, err := s.Quality(l)
	if err != nil {
		return Candidate{}, err
	}
	return Candidate{
		Params: p, Layout: l, Quality: q, Cost: cost,
		QPS: qps, Latency: lat, Batch: batch,
	}, nil
}

// BestMeetingQuality returns the highest-QPS candidate whose quality is at
// least the target — how the paper selects "Acc-eco" (target = baseline
// quality) and "Acc-relaxed" (target = baseline − tolerance) points.
func BestMeetingQuality(cands []Candidate, target float64) (Candidate, bool) {
	for _, c := range cands { // already sorted by QPS desc
		if c.Quality >= target {
			return c, true
		}
	}
	return Candidate{}, false
}

// ParetoFront filters candidates to the quality/QPS pareto frontier
// (no other candidate is at least as good on both axes and better on one).
func ParetoFront(cands []Candidate) []Candidate {
	var front []Candidate
	for i, c := range cands {
		dominated := false
		for j, o := range cands {
			if i == j {
				continue
			}
			if o.QPS >= c.QPS && o.Quality >= c.Quality && (o.QPS > c.QPS || o.Quality > c.Quality) {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, c)
		}
	}
	return front
}

func sortByQPS(cands []Candidate) {
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0 && cands[j].QPS > cands[j-1].QPS; j-- {
			cands[j], cands[j-1] = cands[j-1], cands[j]
		}
	}
}
