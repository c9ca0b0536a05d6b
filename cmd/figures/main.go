// Command figures regenerates every table and figure of the paper
// through the unified report subsystem, one file per artifact (or
// stdout with -stdout), as TSV or JSON.
//
// Usage:
//
//	figures [-scale quick|default] [-nv N] [-sources N] [-seed N]
//	        [-format tsv|json] [-workers N]
//	        [-out DIR] [-stdout] [-only table1,fig3,...]
//
// Artifacts: table1, table2, fig3, fig4, fig5, fig6, fig7, fig8
// (fig7 and fig8 share one file, fig7_fig8, as both render the same
// per-band fit sweep).
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/core"
	"repro/internal/report"
)

func main() {
	var (
		scale   = flag.String("scale", "default", "preset: quick or default")
		nv      = flag.Int("nv", 0, "override telescope window size NV")
		sources = flag.Int("sources", 0, "override population size")
		seed    = flag.Int64("seed", 0, "override random seed")
		format  = flag.String("format", "tsv", "output encoding: tsv or json")
		workers = flag.Int("workers", 0, "fan-out of every layer: engine shards, months/snapshots in flight, freeze, fits (0 = GOMAXPROCS)")
		outDir  = flag.String("out", "figures_out", "output directory")
		stdout  = flag.Bool("stdout", false, "write everything to stdout instead of files")
		only    = flag.String("only", "", "comma-separated subset of artifacts")
	)
	flag.Parse()
	if *format != "tsv" && *format != "json" {
		log.Fatalf("figures: -format must be tsv or json, got %q", *format)
	}

	cfg := core.DefaultConfig()
	if *scale == "quick" {
		cfg = core.QuickConfig()
	}
	if *nv > 0 {
		cfg.NV = *nv
	}
	if *sources > 0 {
		cfg.Radiation.NumSources = *sources
	}
	if *seed != 0 {
		cfg.Radiation.Seed = *seed
	}
	cfg.Workers = *workers

	// -only keys are the historical eight names; fig7 and fig8 both
	// select the fused fig7_fig8 artifact.
	want := map[report.ArtifactID]bool{}
	if *only != "" {
		for _, k := range strings.Split(*only, ",") {
			switch k = strings.TrimSpace(k); k {
			case "fig7", "fig8":
				want[report.Fig7Fig8] = true
			default:
				want[report.ArtifactID(k)] = true
			}
		}
	}
	enabled := func(id report.ArtifactID) bool { return len(want) == 0 || want[id] }

	pipe, err := core.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("running study: NV=%d sources=%d months=%d snapshots=%d",
		cfg.NV, cfg.Radiation.NumSources, cfg.Radiation.Months, len(cfg.SnapshotTimes))
	res, err := pipe.Run()
	if err != nil {
		log.Fatal(err)
	}
	g := res.Report()

	open := func(name string) (io.WriteCloser, error) {
		if *stdout {
			fmt.Printf("\n==> %s <==\n", name)
			return nopCloser{os.Stdout}, nil
		}
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return nil, err
		}
		return os.Create(filepath.Join(*outDir, name))
	}
	write := report.WriteTSV
	if *format == "json" {
		write = report.WriteJSON
	}
	for _, id := range report.All() {
		if !enabled(id) {
			continue
		}
		name := report.Filename(id, *format)
		w, err := open(name)
		if err != nil {
			log.Fatal(err)
		}
		if err := write(w, g, id); err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		if err := w.Close(); err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		if !*stdout {
			log.Printf("wrote %s", filepath.Join(*outDir, name))
		}
	}
}

type nopCloser struct{ io.Writer }

func (nopCloser) Close() error { return nil }
