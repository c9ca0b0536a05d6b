// Command studyd is the resident study daemon: one long-lived process
// that owns a single study, grows it incrementally over a small HTTP
// ingest API (telescope windows and honeyfarm months arrive one at a
// time instead of being enumerated up front), and serves all seven
// paper artifacts — Tables I-II, Figures 3-8 — as JSON or TSV from a
// published snapshot that concurrent pollers read at one atomic load
// per request.
//
// Usage:
//
//	studyd [-listen ADDR] [-store ADDR] [-scale quick|default]
//	       [-nv N] [-sources N] [-seed N] [-months N]
//	       [-workers N] [-preload]
//
// On start the daemon prints "studyd listening on ADDR" to stderr
// (machine-parsable by supervisors and the e2e test; ADDR resolves
// -listen's :0 to the bound port). With -store it dials a tripled
// service, publishes every ingested table there, appends a ledger row
// per ingest, and on restart replays the ledger to recover the study.
// With -preload the full batch study (every month, the paper's
// snapshot times) is ingested before serving, so artifacts are warm
// immediately.
//
// Endpoints (see DESIGN.md "Study daemon"):
//
//	GET  /healthz                     liveness + study size
//	GET  /status                      sizes, seq, per-artifact state
//	GET  /artifacts                   artifact index
//	GET  /artifacts/{id}?format=tsv   one artifact (json default)
//	POST /ingest/month                {"month": 3} or {"month": "2020-05"}
//	POST /ingest/snapshot             {"time": "2020-06-17T12:00:00Z"}
//
// SIGTERM or SIGINT drains gracefully: new ingests get 503, in-flight
// requests (including an ingest mid-recompute) finish, the listener
// closes, the store connection flushes, and the process exits 0. A
// second signal aborts immediately with exit 4.
package main

import (
	"context"
	"flag"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/daemon"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		study        = core.StudyFlags(flag.CommandLine, "months")
		listen       = flag.String("listen", "127.0.0.1:8473", "HTTP listen address (use :0 for an ephemeral port)")
		store        = flag.String("store", "", "tripled service address for durable backing (empty = in-memory only)")
		preload      = flag.Bool("preload", false, "ingest the full batch study before serving")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown budget")
	)
	flag.Set("scale", "quick") // a resident study starts small unless told otherwise
	flag.Parse()

	cfg := study()
	cfg.StoreAddr = *store

	// The resident daemon grows snapshots over the ingest API;
	// cfg.SnapshotTimes only seeds -preload. A -months override can
	// shrink the study below some preset dates — drop those rather
	// than refuse to start.
	kept := cfg.SnapshotTimes[:0:0]
	for _, ts := range cfg.SnapshotTimes {
		if m := cfg.MonthOf(ts); m >= 0 && m < float64(cfg.Radiation.Months) {
			kept = append(kept, ts)
			continue
		}
		if *preload {
			log.Printf("studyd: preload: snapshot %v outside the %d-month study, skipped", ts, cfg.Radiation.Months)
		}
	}
	cfg.SnapshotTimes = kept

	d, err := daemon.New(cfg)
	if err != nil {
		log.Printf("studyd: %v", err)
		return 1
	}
	if snap := d.Snapshot(); snap.Months > 0 || snap.Snapshots > 0 {
		log.Printf("studyd: recovered %d months, %d snapshots from store", snap.Months, snap.Snapshots)
	}
	if *preload {
		for m := 0; m < cfg.Radiation.Months; m++ {
			if err := d.IngestMonth(m); err != nil {
				log.Printf("studyd: preload month %d: %v", m, err)
				return 1
			}
		}
		for _, ts := range cfg.SnapshotTimes {
			if err := d.IngestSnapshot(ts); err != nil {
				log.Printf("studyd: preload snapshot %v: %v", ts, err)
				return 1
			}
		}
		log.Printf("studyd: preloaded %d months, %d snapshots", cfg.Radiation.Months, len(cfg.SnapshotTimes))
	}

	srv, err := daemon.Serve(d, *listen)
	if err != nil {
		log.Printf("studyd: %v", err)
		return 1
	}
	// The handler is in place before the listen line announces
	// readiness: a supervisor may signal the moment it reads it.
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	log.Printf("studyd listening on %s", srv.Addr())
	<-sigs
	log.Printf("studyd: draining (in-flight work finishes, new ingests rejected)")

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		done <- srv.Shutdown(ctx)
	}()
	select {
	case err := <-done:
		if err != nil {
			log.Printf("studyd: drain: %v", err)
			return 1
		}
		log.Printf("studyd: drained cleanly")
		return 0
	case <-sigs:
		log.Printf("studyd: second signal, aborting drain")
		return 4
	}
}
