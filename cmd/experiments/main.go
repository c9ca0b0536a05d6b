// Command experiments is the one batch study command: it runs the full
// study, prints the paper's laws (report.Laws: claim, measured value,
// rule and verdict per law; a law too thinly sampled to read says n/a)
// and exits 1 when one fails. -artifacts DIR writes the paper's tables
// and figures, one file each, as TSV or JSON (-format); -stdout prints
// the same bytes under "==> name <==" headers and moves the law table
// to stderr; -only picks artifacts by id (fig7 and fig8 name the fused
// fig7_fig8). A bad -format or -only, either with nowhere to write, or
// -artifacts with -stdout exits 2 before any study runs.
//
// Usage:
//
//	experiments [-scale quick|default] [-nv N] [-sources N] [-seed N]
//	            [-workers N] [-leaf-size N] [-store ADDR|auto]
//	            [-artifacts DIR | -stdout] [-format tsv|json]
//	            [-only table1,fig3,...]
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/tripled"
)

func main() {
	want := map[report.ArtifactID]bool{}
	var (
		study   = core.StudyFlags(flag.CommandLine, "leaf-size")
		artDir  = flag.String("artifacts", "", "write the artifacts to this directory")
		stdout  = flag.Bool("stdout", false, "write the artifacts to stdout (the law table goes to stderr)")
		format  = flag.String("format", "tsv", "artifact encoding: tsv or json")
		store   = flag.String("store", "", `tripled D4M server for the correlation tables ("auto" = in-process)`)
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
	given := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { given[f.Name] = true })
	switch {
	case *format != "tsv" && *format != "json":
		usage("-format must be tsv or json, got %q", *format)
	case *artDir != "" && *stdout:
		usage("-artifacts and -stdout both given: write to one")
	case *artDir == "" && !*stdout && (given["format"] || given["only"]):
		usage("-format and -only choose what to write: give -artifacts DIR or -stdout")
	}

	cfg := study()
	cfg.StoreAddr = *store
	if *store == "auto" {
		srv, err := tripled.Serve(tripled.NewStore(), "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		cfg.StoreAddr = srv.Addr()
		log.Printf("in-process tripled store on %s", cfg.StoreAddr)
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
	laws, write := os.Stdout, report.WriteTSV
	if *stdout {
		laws = os.Stderr
	}
	if *format == "json" {
		write = report.WriteJSON
	}
	if *artDir != "" {
		if err := os.MkdirAll(*artDir, 0o755); err != nil {
			log.Fatal(err)
		}
	}
	for _, id := range report.All() {
		if *artDir == "" && !*stdout || len(want) > 0 && !want[id] {
			continue
		}
		name := report.Filename(id, *format)
		var b bytes.Buffer
		err := write(&b, g, id)
		if err == nil && *stdout {
			_, err = fmt.Printf("\n==> %s <==\n%s", name, b.Bytes())
		} else if err == nil {
			err = os.WriteFile(filepath.Join(*artDir, name), b.Bytes(), 0o644)
		}
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
	}

	fmt.Fprintln(laws, "| id | claim | measured | rule | verdict |")
	fmt.Fprintln(laws, "|---|---|---|---|---|")
	count := map[report.Verdict]int{}
	for _, l := range report.Laws() {
		r := g.Judge(l)
		count[r.Verdict]++
		fmt.Fprintf(laws, "| %s | %s | %s | %s | %s |\n", r.ID, r.Claim, r.Measured, r.Rule, r.Verdict)
	}
	fmt.Fprintf(laws, "\n%d passed, %d failed, %d n/a\n", count[report.Pass], count[report.Fail], count[report.NA])
	if count[report.Fail] > 0 {
		os.Exit(1)
	}
}

// usage refuses a bad command line: one line on stderr, exit 2.
func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "experiments: "+format+"\n", args...)
	os.Exit(2)
}
