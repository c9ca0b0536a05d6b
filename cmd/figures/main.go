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
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/report"
)

func main() {
	// -only keys are the historical eight names; fig7 and fig8 both
	// select the fused fig7_fig8 artifact.
	want := map[report.ArtifactID]bool{}
	var (
		study   = core.StudyFlags(flag.CommandLine)
		format  = flag.String("format", "tsv", "output encoding: tsv or json")
		outDir  = flag.String("out", "figures_out", "output directory")
		stdout  = flag.Bool("stdout", false, "write everything to stdout instead of files")
		accepts = append(report.All(), "fig7", "fig8")
	)
	flag.Func("only", "comma-separated subset of artifacts", func(keys string) error {
		for _, k := range strings.Split(keys, ",") {
			id := report.ArtifactID(strings.TrimSpace(k))
			if !slices.Contains(accepts, id) {
				return fmt.Errorf("no artifact %q (accepted: %v)", id, accepts)
			}
			if id == "fig7" || id == "fig8" {
				id = report.Fig7Fig8
			}
			want[id] = true
		}
		return nil
	})
	flag.Parse()
	if *format != "tsv" && *format != "json" {
		log.Fatalf("figures: -format must be tsv or json, got %q", *format)
	}
	cfg := study()
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
