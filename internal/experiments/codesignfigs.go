package experiments

import (
	"fmt"
	"time"

	"gpudpf/internal/codesign"
)

// Fig16 regenerates Figure 16: computation (a) and communication (b)
// needed to reach the Acc-relaxed quality target with and without ML
// co-design.
func Fig16() (*Table, error) {
	apps, err := Apps()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig16",
		Title:   "Computation and communication to reach Acc-relaxed, with/without co-design",
		Columns: []string{"app", "axis", "without co-design", "with co-design", "saving"},
		Notes:   "paper: co-design improves computation 1.9–7.4x and communication 1–2.6x",
	}
	for _, app := range apps {
		budget := codesign.Budgets{CommBytes: app.CommBudget, Latency: time.Duration(app.LatencyBudget) * time.Millisecond}
		target := app.RelaxedTarget()

		withC, err := searchApp(app, appSpace(), budget, "std")
		if err != nil {
			return nil, err
		}
		withoutC, err := searchApp(app, pbrOnlySpace(), budget, "pbr")
		if err != nil {
			return nil, err
		}
		// The no-co-design arm may also fall back to the straightforward
		// per-lookup design, like the paper's baseline systems do.
		plain, err := plainSweep(app)
		if err != nil {
			return nil, err
		}

		// (a) minimum computation meeting the target under the comm budget.
		minPRF := func(cands []codesign.Candidate, includePlain bool) (int64, bool) {
			best := int64(-1)
			for _, c := range cands {
				if c.Quality < target {
					continue
				}
				if best < 0 || c.Cost.PRFBlocks < best {
					best = c.Cost.PRFBlocks
				}
			}
			if includePlain {
				for _, p := range plain {
					if p.Quality < target || p.Comm() > app.CommBudget {
						continue
					}
					if best < 0 || p.PRF < best {
						best = p.PRF
					}
				}
			}
			return best, best >= 0
		}
		aWith, okW := minPRF(withC, true)
		aWithout, okWo := minPRF(withoutC, true)
		t.AddRow(app.Name, "computation (PRF blocks)",
			prfOrNA(aWithout, okWo), prfOrNA(aWith, okW), ratioStr(aWithout, aWith, okW && okWo))

		// (b) minimum communication meeting the target under a computation
		// cap (a few full-table passes — the analogue of the paper's fixed
		// PRF budgets).
		compCap := int64(8 * app.Items)
		minComm := func(cands []codesign.Candidate, includePlain bool) (int64, bool) {
			best := int64(-1)
			for _, c := range cands {
				if c.Quality < target || c.Cost.PRFBlocks > compCap {
					continue
				}
				if best < 0 || c.Cost.CommBytes() < best {
					best = c.Cost.CommBytes()
				}
			}
			if includePlain {
				for _, p := range plain {
					if p.Quality < target || p.PRF > compCap {
						continue
					}
					if best < 0 || p.Comm() < best {
						best = p.Comm()
					}
				}
			}
			return best, best >= 0
		}
		bWith, okW2 := minComm(withC, true)
		bWithout, okWo2 := minComm(withoutC, true)
		t.AddRow(app.Name, "communication",
			commOrNA(bWithout, okWo2), commOrNA(bWith, okW2), ratioStr(bWithout, bWith, okW2 && okWo2))
	}
	return t, nil
}

func prfOrNA(v int64, ok bool) string {
	if !ok {
		return "n/a"
	}
	return fmt.Sprintf("%d", v)
}

func commOrNA(v int64, ok bool) string {
	if !ok {
		return "n/a"
	}
	return fmtBytes(v)
}

func ratioStr(without, with int64, ok bool) string {
	if !ok || with <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.2fx", float64(without)/float64(with))
}

// Fig17 regenerates Figure 17: the computation/communication pareto with
// model quality fixed within 2% of baseline.
func Fig17() (*Table, error) {
	apps, err := Apps()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig17",
		Title:   "Computation vs communication pareto (quality within 2% of baseline)",
		Columns: []string{"app", "design", "PRF blocks", "communication", "quality"},
	}
	for _, app := range apps {
		target := app.Baseline - 0.02*abs(app.Baseline)
		budget := codesign.Budgets{CommBytes: app.CommBudget, Latency: time.Duration(app.LatencyBudget) * time.Millisecond}
		for _, variant := range []struct {
			name  string
			space codesign.Space
			kind  string
		}{{"batch-pir", pbrOnlySpace(), "pbr"}, {"w/ co-design", appSpace(), "std"}} {
			cands, err := searchApp(app, variant.space, budget, variant.kind)
			if err != nil {
				return nil, err
			}
			for _, c := range paretoCompComm(cands, target) {
				t.AddRow(app.Name, variant.name,
					fmt.Sprintf("%d", c.Cost.PRFBlocks), fmtBytes(c.Cost.CommBytes()),
					qualStr(app, c.Quality))
			}
		}
		// The straightforward per-lookup design for reference.
		plain, err := plainSweep(app)
		if err != nil {
			return nil, err
		}
		for _, p := range plain {
			if p.Quality >= target && p.Comm() <= app.CommBudget {
				t.AddRow(app.Name, "per-lookup PIR",
					fmt.Sprintf("%d", p.PRF), fmtBytes(p.Comm()), qualStr(app, p.Quality))
				break // cheapest feasible point only
			}
		}
	}
	return t, nil
}

// paretoCompComm filters to quality-meeting candidates minimal on
// (computation, communication).
func paretoCompComm(cands []codesign.Candidate, target float64) []codesign.Candidate {
	var feasible []codesign.Candidate
	for _, c := range cands {
		if c.Quality >= target {
			feasible = append(feasible, c)
		}
	}
	var front []codesign.Candidate
	for i, c := range feasible {
		dominated := false
		for j, o := range feasible {
			if i == j {
				continue
			}
			if o.Cost.PRFBlocks <= c.Cost.PRFBlocks && o.Cost.CommBytes() <= c.Cost.CommBytes() &&
				(o.Cost.PRFBlocks < c.Cost.PRFBlocks || o.Cost.CommBytes() < c.Cost.CommBytes()) {
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

// FigQualityVsQPS regenerates Figures 18 (wikitext2), 19 (movielens) and
// 20 (taobao): throughput vs model quality with and without co-design at a
// tight and a loose budget.
func FigQualityVsQPS(appName, figID string) (*Table, error) {
	apps, err := Apps()
	if err != nil {
		return nil, err
	}
	var app *App
	for _, a := range apps {
		if a.Name == appName {
			app = a
		}
	}
	if app == nil {
		return nil, fmt.Errorf("experiments: unknown app %q", appName)
	}
	t := &Table{
		ID:      figID,
		Title:   fmt.Sprintf("Throughput vs quality (%s), with/without co-design", appName),
		Columns: []string{"budget", "design", "QPS", "quality"},
		Notes:   "pareto points only; co-design helps most under the tight budget",
	}
	budgets := []struct {
		name string
		b    codesign.Budgets
	}{
		{"tight", codesign.Budgets{CommBytes: app.TightComm, Latency: 50 * time.Millisecond}},
		{"loose", codesign.Budgets{CommBytes: app.CommBudget, Latency: 200 * time.Millisecond}},
	}
	for _, bud := range budgets {
		for _, variant := range []struct {
			name  string
			space codesign.Space
			kind  string
		}{{"batch-pir", pbrOnlySpace(), "pbr"}, {"w/ co-design", appSpace(), "std"}} {
			cands, err := searchApp(app, variant.space, bud.b, variant.kind)
			if err != nil {
				t.AddRow(bud.name, variant.name, "n/a", "infeasible budget")
				continue
			}
			for _, c := range codesign.ParetoFront(cands) {
				t.AddRow(bud.name, variant.name, fmtF(c.QPS), qualStr(app, c.Quality))
			}
		}
	}
	return t, nil
}

// Fig18 is the WikiText-2 quality/throughput figure.
func Fig18() (*Table, error) { return FigQualityVsQPS("wikitext2", "fig18") }

// Fig19 is the MovieLens quality/throughput figure.
func Fig19() (*Table, error) { return FigQualityVsQPS("movielens", "fig19") }

// Fig20 is the Taobao quality/throughput figure.
func Fig20() (*Table, error) { return FigQualityVsQPS("taobao", "fig20") }

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
