// Beam drift: measure how the overlap between telescope and honeyfarm
// source sets decays with time, per brightness band, and compare the
// recovered modified-Cauchy alpha against the generator's alpha* — the
// measurement behind report's law F7.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/stats"
)

func main() {
	cfg := core.QuickConfig()
	cfg.NV = 1 << 16
	cfg.Radiation.NumSources = 40000
	cfg.Radiation.ZM = stats.PaperZM(1 << 14)
	cfg.Radiation.BrightLog2 = 8 // log2(sqrt(2^16))
	pipe, err := core.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	res, err := pipe.Run()
	if err != nil {
		log.Fatal(err)
	}

	snap := res.Study.Snapshots[0]
	fmt.Printf("snapshot %s (month %.1f), %d sources\n\n", snap.Label, snap.Month, len(snap.Addrs()))

	for _, band := range []int{2, 5, 8} {
		series, err := res.Frozen().Temporal(0, band)
		if err != nil {
			fmt.Printf("band 2^%d: %v\n", band, err)
			continue
		}
		fit := series.Fit()
		m := fit.Model.(stats.ModifiedCauchy)
		fmt.Printf("band 2^%d (%d sources): measured alpha=%.2f beta=%.2f drop=%.0f%%  [generator alpha* = %g]\n",
			band, series.Sources, m.Alpha, m.Beta, 100*m.OneMonthDrop(), cfg.Radiation.AlphaStar)
		// Render the decay curve.
		curve := fit.Curve(series.Dt)
		for i := range series.Dt {
			bar := ""
			for k := 0; k < int(series.Fraction[i]*60); k++ {
				bar += "#"
			}
			fmt.Printf("  %s dt=%+5.1f  %.3f (fit %.3f) %s\n",
				series.Labels[i], series.Dt[i], series.Fraction[i], curve[i], bar)
		}
		fmt.Println()
	}
}
