// Quickstart: run a seconds-scale observatory/outpost correlation study
// and print the paper's headline results.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/correlate"
	"repro/internal/stats"
)

func main() {
	// QuickConfig is a small study: 2^14-packet telescope windows over a
	// 10k-source synthetic population, 15 honeyfarm months.
	pipe, err := core.New(core.QuickConfig())
	if err != nil {
		log.Fatal(err)
	}
	res, err := pipe.Run()
	if err != nil {
		log.Fatal(err)
	}

	// Headline 1 (Figure 3): telescope sources follow a Zipf-Mandelbrot
	// degree distribution.
	fig3 := res.Report().Fig3()
	fmt.Printf("Zipf-Mandelbrot fit of snapshot %s: alpha=%.2f delta=%.2f (paper: 1.76, 3.93)\n",
		fig3[0].Label, fig3[0].Alpha, fig3[0].Delta)

	// Headline 2 (Figure 4): bright sources are seen by both vantage
	// points in the same month; faint-source visibility is logarithmic.
	fig4, err := res.Report().Fig4()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("same-month correlation by brightness:")
	for _, p := range fig4[0].Points {
		if p.Sources < 20 {
			continue
		}
		fmt.Printf("  d=%-6g sources=%-5d seen in honeyfarm: %3.0f%%  (model %3.0f%%)\n",
			p.D, p.Sources, 100*p.Fraction, 100*correlate.PeakModel(p.D, res.Config.NV))
	}

	// Headline 3 (Figure 5): the temporal decay is modified-Cauchy.
	_, fits, err := res.Report().Fig5()
	if err != nil {
		log.Fatal(err)
	}
	mc := fits["modified-cauchy"]
	m := mc.Model.(stats.ModifiedCauchy)
	fmt.Printf("temporal decay: modified Cauchy alpha=%.2f beta=%.2f residual=%.2f\n",
		m.Alpha, m.Beta, mc.Residual)
	fmt.Printf("  vs Cauchy residual %.2f, Gaussian residual %.2f\n",
		fits["cauchy"].Residual, fits["gaussian"].Residual)
}
