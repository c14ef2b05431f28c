// Command benchall regenerates every table and figure of the paper's
// evaluation section and prints them as aligned text tables.
//
// Usage:
//
//	benchall            # run everything (trains the three app models)
//	benchall -only fig6 # run one artifact
//	benchall -fast      # hardware-model artifacts only (no model training)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"gpudpf/internal/experiments"
)

var runners = map[string]func() (*experiments.Table, error){
	"fig3":          experiments.Fig3,
	"tab1":          experiments.Table1,
	"tab2":          experiments.Table2,
	"fig6":          experiments.Fig6,
	"fig8":          experiments.Fig8,
	"fig9":          experiments.Fig9,
	"fig11":         experiments.Fig11Table3,
	"fig12":         experiments.Fig12,
	"fig13":         experiments.Fig13,
	"fig14":         experiments.Fig14,
	"tab4":          experiments.Table4,
	"tab5":          experiments.Table5,
	"fig16":         experiments.Fig16,
	"fig17":         experiments.Fig17,
	"fig18":         experiments.Fig18,
	"fig19":         experiments.Fig19,
	"fig20":         experiments.Fig20,
	"ext-multigpu":  experiments.ExtMultiGPU,
	"ext-serving":   experiments.ExtServing,
	"ext-integrity": experiments.ExtIntegrity,
	"abl-coop":      experiments.AblationCoopThreshold,
	"abl-hotfrac":   experiments.AblationHotFraction,
	"abl-coloc":     experiments.AblationColocation,
}

// fastOrder is what -fast renders, in order: the hardware-model artifacts.
// slowOrder follows it in a full run; those train the three app models.
var (
	fastOrder = []string{"fig3", "tab1", "tab2", "fig6", "fig8", "fig9", "fig13", "fig14", "tab4", "tab5",
		"ext-multigpu", "ext-serving", "ext-integrity", "abl-coop"}
	slowOrder = []string{"fig11", "fig12", "fig16", "fig17", "fig18", "fig19", "fig20", "abl-hotfrac", "abl-coloc"}
)

func main() {
	only := flag.String("only", "", "run a single artifact (fig3, tab1, tab2, fig6, fig8, fig9, fig11, fig12, fig13, fig14, tab4, tab5, fig16, fig17, fig18, fig19, fig20)")
	fast := flag.Bool("fast", false, "skip the experiments that train ML models")
	flag.Parse()

	ids := append([]string(nil), fastOrder...)
	if *only != "" {
		if _, ok := runners[*only]; !ok {
			fmt.Fprintf(os.Stderr, "benchall: unknown artifact %q\n", *only)
			os.Exit(2)
		}
		ids = []string{*only}
	} else if !*fast {
		ids = append(ids, slowOrder...)
	}
	if err := render(os.Stdout, ids); err != nil {
		fmt.Fprintf(os.Stderr, "benchall: %v\n", err)
		os.Exit(1)
	}
}

// render writes each artifact's table to w, in order, one blank line after
// each.
func render(w io.Writer, ids []string) error {
	for _, id := range ids {
		tab, err := runners[id]()
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w, tab.Render()); err != nil {
			return err
		}
	}
	return nil
}
