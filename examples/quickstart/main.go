// Quickstart: run a seconds-scale observatory/outpost correlation study
// and judge it by the paper's laws.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/report"
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

	// Each law reads its artifacts off the report graph (g.Fig3(), ...);
	// at this scale some bands are too thin to read, and say n/a.
	g := res.Report()
	for _, l := range report.Laws() {
		r := g.Judge(l)
		fmt.Printf("%-4s %-5s %s\n     %s (want %s)\n", r.ID, r.Verdict, r.Claim, r.Measured, r.Rule)
	}
}
