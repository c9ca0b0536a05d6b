// Command honeyfarm-sim runs the outpost side of the study standalone:
// it builds the configured number of months of synthetic radiation into
// honeyfarm month tables, prints the monthly source counts and
// classification census (the operator's view of "analyze and label"
// enrichment), and optionally dumps each month's D4M table as TSV.
//
// Usage:
//
//	honeyfarm-sim [-sources N] [-seed N] [-months N] [-dump DIR]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"repro/internal/honeyfarm"
	"repro/internal/radiation"
)

func main() {
	var (
		sources = flag.Int("sources", 100000, "population size")
		seed    = flag.Int64("seed", 1, "random seed")
		months  = flag.Int("months", 15, "months to build")
		dump    = flag.String("dump", "", "directory to dump monthly TSV tables (optional)")
	)
	flag.Parse()

	cfg := radiation.DefaultConfig()
	cfg.Seed = *seed
	cfg.NumSources = *sources
	cfg.Months = *months
	pop, err := radiation.NewPopulation(cfg)
	if err != nil {
		log.Fatal(err)
	}
	start := time.Date(2020, 2, 1, 0, 0, 0, 0, time.UTC)

	fmt.Printf("%-9s %9s   census\n", "month", "sources")
	for m := 0; m < *months; m++ {
		ms := start.AddDate(0, m, 0)
		label := ms.Format("2006-01")
		mw := honeyfarm.BuildMonth(label, pop.HoneyfarmMonth(m, ms))
		fmt.Printf("%-9s %9d   ", label, mw.Sources())
		for i, row := range mw.ClassificationCensus() {
			if i > 0 {
				fmt.Print(", ")
			}
			fmt.Printf("%s %d", row.Classification, row.Sources)
		}
		fmt.Println()

		if *dump != "" {
			if err := os.MkdirAll(*dump, 0o755); err != nil {
				log.Fatal(err)
			}
			path := filepath.Join(*dump, label+".tsv")
			f, err := os.Create(path)
			if err != nil {
				log.Fatal(err)
			}
			if err := mw.Table.WriteTSV(f); err != nil {
				log.Fatal(err)
			}
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
		}
	}
	if *dump != "" {
		log.Printf("monthly tables dumped to %s", *dump)
	}
}
