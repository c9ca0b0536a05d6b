// Command experiments runs the full study and scores every reproduced
// artifact against the paper's claims and the generator's ground truth.
// It prints a markdown verdict table, one row per claim, and exits 1
// when any claim fails.
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
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/tripled"
)

type check struct {
	id       string
	claim    string
	measured string
	pass     bool
}

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

	if *artDir != "" {
		if err := os.MkdirAll(*artDir, 0o755); err != nil {
			log.Fatal(err)
		}
		g := res.Report()
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

	var checks []check

	// T1: dataset inventory shape.
	t1 := res.Report().TableI()
	snapRows := 0
	for _, r := range t1 {
		if r.CAIDAStart != "" {
			snapRows++
		}
	}
	checks = append(checks, check{
		id:       "T1",
		claim:    "15 honeyfarm months + 5 telescope snapshots",
		measured: fmt.Sprintf("%d months, %d snapshot rows", len(t1), snapRows),
		pass:     len(t1) == cfg.Radiation.Months && snapRows == len(cfg.SnapshotTimes),
	})

	// T2: NV conservation through the anonymized matrices.
	allNV := true
	for _, q := range res.Report().TableII() {
		if q.ValidPackets != float64(cfg.NV) {
			allNV = false
		}
	}
	checks = append(checks, check{
		id:       "T2",
		claim:    "Table II valid packets == NV on anonymized matrices",
		measured: fmt.Sprintf("all %d windows conserve NV: %v", len(res.Windows), allNV),
		pass:     allNV,
	})

	// F3: ZM alpha near the paper's 1.76.
	var alphaMin, alphaMax float64 = math.Inf(1), math.Inf(-1)
	for _, s := range res.Report().Fig3() {
		alphaMin = math.Min(alphaMin, s.Alpha)
		alphaMax = math.Max(alphaMax, s.Alpha)
	}
	checks = append(checks, check{
		id:       "F3",
		claim:    "Zipf-Mandelbrot alpha ~ 1.76 (paper)",
		measured: fmt.Sprintf("alpha in [%.2f, %.2f] across snapshots", alphaMin, alphaMax),
		pass:     alphaMin > 1.4 && alphaMax < 2.2,
	})

	// F4: bright sources ~always visible; faint visibility log-linear.
	fig4, err := res.Report().Fig4()
	if err != nil {
		log.Fatal(err)
	}
	// Individual bright bands hold few sources (the tail is thin), so
	// pool matched/total across all bright bands per snapshot instead of
	// gating on noisy per-band fractions.
	brightOK := true
	var pooled []float64
	var logd, frac []float64
	for _, s := range fig4 {
		brightMatched, brightTotal := 0, 0
		for _, p := range s.Points {
			if float64(p.Band) >= cfg.SqrtNVLog2() {
				brightMatched += p.Matched
				brightTotal += p.Sources
			} else if p.Sources >= 15 {
				logd = append(logd, float64(p.Band))
				frac = append(frac, p.Fraction)
			}
		}
		if brightTotal > 0 {
			f := float64(brightMatched) / float64(brightTotal)
			pooled = append(pooled, f)
			if f < 0.6 {
				brightOK = false
			}
		}
	}
	r := stats.Pearson(logd, frac)
	checks = append(checks, check{
		id:       "F4a",
		claim:    "bright sources (d > sqrt(NV)) nearly always co-observed",
		measured: fmt.Sprintf("pooled bright fractions per snapshot: %.2f", pooled),
		pass:     brightOK && len(pooled) > 0,
	})
	checks = append(checks, check{
		id:       "F4b",
		claim:    "faint visibility proportional to log2(d)",
		measured: fmt.Sprintf("Pearson(log2 d, fraction) = %.3f over %d band points", r, len(logd)),
		pass:     r > 0.85,
	})

	// F5: modified Cauchy beats Gaussian and Cauchy.
	_, fits, err := res.Report().Fig5()
	if err != nil {
		log.Fatal(err)
	}
	mc, ca, ga := fits["modified-cauchy"].Residual, fits["cauchy"].Residual, fits["gaussian"].Residual
	checks = append(checks, check{
		id:       "F5",
		claim:    "modified Cauchy best of the three families",
		measured: fmt.Sprintf("residuals: MC %.2f, Cauchy %.2f, Gaussian %.2f", mc, ca, ga),
		pass:     mc <= ca && mc <= ga,
	})

	// F7: alpha ~ 1 typical; compare against generator alpha*.
	var alphas []float64
	for _, sweep := range res.Report().Fig7And8() {
		for _, f := range sweep {
			if f.Sources >= cfg.MinBandSources*2 {
				alphas = append(alphas, f.Alpha)
			}
		}
	}
	aSum := stats.Summarize(alphas)
	checks = append(checks, check{
		id: "F7",
		claim: fmt.Sprintf("typical modified-Cauchy alpha ~ 1 (generator alpha* = %g)",
			cfg.Radiation.AlphaStar),
		measured: fmt.Sprintf("mean alpha = %.2f over %d band fits", aSum.Mean, aSum.N),
		pass:     aSum.N > 0 && aSum.Mean > 0.6 && aSum.Mean < 1.5,
	})

	// F8: the one-month-drop dip sits at the generator's DipLog2 (the
	// paper's d ~ 10^3).
	bestBand, bestDrop := -1, 0.0
	for _, sweep := range res.Report().Fig7And8() {
		for _, f := range sweep {
			if f.Sources >= cfg.MinBandSources && f.Drop > bestDrop {
				bestDrop = f.Drop
				bestBand = f.Band
			}
		}
	}
	checks = append(checks, check{
		id: "F8",
		claim: fmt.Sprintf("one-month drop maximal near d = 2^%g (paper: d ~ 10^3)",
			cfg.Radiation.DipLog2),
		measured: fmt.Sprintf("max drop %.2f at band 2^%d", bestDrop, bestBand),
		pass:     bestBand >= int(cfg.Radiation.DipLog2)-3 && bestBand <= int(cfg.Radiation.DipLog2)+3,
	})

	// Render.
	fmt.Println("| id | claim | measured | verdict |")
	fmt.Println("|---|---|---|---|")
	failures := 0
	for _, c := range checks {
		verdict := "PASS"
		if !c.pass {
			verdict = "FAIL"
			failures++
		}
		fmt.Printf("| %s | %s | %s | %s |\n", c.id, c.claim, c.measured, verdict)
	}
	if failures > 0 {
		fmt.Printf("\n%d of %d checks failed\n", failures, len(checks))
		os.Exit(1)
	}
	fmt.Printf("\nall %d checks passed\n", len(checks))
}
