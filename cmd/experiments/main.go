// Command experiments runs the full study and judges it by the paper's
// laws, the one table internal/report states them in (report.Laws): it
// prints a markdown row per law — claim, measured value, rule and
// verdict — and exits 1 when any law fails. A law reads only bands that
// hold enough sources (the table's one sample-size rule) and says n/a
// when none does, which is not a failure. At -scale quick some laws say
// it (F8b always: no band near the generator's drop dip is populated);
// at -scale default every law reads, and passes on every seed
// core.TestPaperLawsAcrossSeeds runs.
//
// Usage:
//
//	experiments [-scale quick|default] [-nv N] [-sources N] [-seed N]
//	            [-workers N] [-leaf-size N]
//	            [-artifacts DIR] [-store ADDR|auto]
//
// Every measured value comes off the unified report graph (the same
// memoized artifacts cmd/figures renders); -artifacts additionally
// dumps all seven as TSV through the shared renderer.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/tripled"
)

func main() {
	var (
		study  = core.StudyFlags(flag.CommandLine, "leaf-size")
		artDir = flag.String("artifacts", "", "also write all seven artifacts as TSV to this directory")
		store  = flag.String("store", "", `tripled D4M server for the correlation tables ("auto" = in-process)`)
	)
	flag.Parse()

	cfg := study()
	if *store == "auto" {
		srv, err := tripled.Serve(tripled.NewStore(), "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		cfg.StoreAddr = srv.Addr()
		log.Printf("in-process tripled store on %s", cfg.StoreAddr)
	} else {
		cfg.StoreAddr = *store
	}

	pipe, err := core.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	log.Printf("running study (NV=%d, %d sources, workers=%d)...",
		cfg.NV, cfg.Radiation.NumSources, cfg.Workers)
	runStart := time.Now()
	res, err := pipe.RunContext(ctx)
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(runStart)
	log.Printf("study complete in %s: %d windows x %d packets through the engine hot path (%.0f pkts/s wall, whole study)",
		elapsed.Round(time.Millisecond), len(res.Windows), cfg.NV,
		float64(len(res.Windows)*cfg.NV)/elapsed.Seconds())

	g := res.Report()
	if *artDir != "" {
		if err := os.MkdirAll(*artDir, 0o755); err != nil {
			log.Fatal(err)
		}
		for _, id := range report.All() {
			name := filepath.Join(*artDir, report.Filename(id, "tsv"))
			f, err := os.Create(name)
			if err != nil {
				log.Fatal(err)
			}
			if err := report.WriteTSV(f, g, id); err != nil {
				log.Fatalf("%s: %v", name, err)
			}
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
		}
		log.Printf("wrote %d artifacts to %s", len(report.All()), *artDir)
	}

	fmt.Println("| id | claim | measured | rule | verdict |")
	fmt.Println("|---|---|---|---|---|")
	count := map[report.Verdict]int{}
	for _, l := range report.Laws() {
		r := g.Judge(l)
		count[r.Verdict]++
		fmt.Printf("| %s | %s | %s | %s | %s |\n", r.ID, r.Claim, r.Measured, r.Rule, r.Verdict)
	}
	fmt.Printf("\n%d passed, %d failed, %d n/a\n", count[report.Pass], count[report.Fail], count[report.NA])
	if count[report.Fail] > 0 {
		os.Exit(1)
	}
}
