// Command telescope-sim exercises the wire-format path of the pipeline:
// it generates one synthetic telescope window, writes it to a pcap
// capture file, reads the file back through the darkspace filter, and
// prints the Table II network quantities of the resulting anonymized
// hypersparse traffic matrix.
//
// Usage:
//
//	telescope-sim [-nv N] [-sources N] [-seed N] [-month M] [-pcap FILE]
//	              [-workers N] [-leaf-size N] [-batch N] [-windows N]
//
// With -windows > 1, additional windows are captured directly from the
// synthesizer through the same telescope, demonstrating the steady-state
// (warm-cache, zero-allocation) hot path.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"time"

	"repro/internal/netquant"
	"repro/internal/pcap"
	"repro/internal/radiation"
	"repro/internal/telescope"
)

func main() {
	var (
		nv       = flag.Int("nv", 1<<18, "window size in valid packets")
		sources  = flag.Int("sources", 100000, "population size")
		seed     = flag.Int64("seed", 1, "random seed")
		month    = flag.Float64("month", 4.5, "beam month of the window")
		file     = flag.String("pcap", "window.pcap", "capture file to write")
		workers  = flag.Int("workers", 0, "engine shard workers (0 = GOMAXPROCS)")
		leafSize = flag.Int("leaf-size", 1<<14, "entries per hypersparse leaf matrix")
		batch    = flag.Int("batch", 0, "packets per engine batch (0 = leaf size)")
		windows  = flag.Int("windows", 1, "total windows to capture; windows after the first run steady-state (warm caches, pooled scratch)")
	)
	flag.Parse()
	for _, f := range []struct {
		name string
		v    int
	}{{"nv", *nv}, {"leaf-size", *leafSize}, {"windows", *windows}} {
		if f.v <= 0 {
			fmt.Fprintf(os.Stderr, "telescope-sim: -%s must be positive, got %d\n", f.name, f.v)
			os.Exit(2)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	cfg := radiation.DefaultConfig()
	cfg.Seed = *seed
	cfg.NumSources = *sources
	pop, err := radiation.NewPopulation(cfg)
	if err != nil {
		log.Fatal(err)
	}

	start := time.Date(2020, 6, 17, 12, 0, 0, 0, time.UTC)
	stream := pop.TelescopeStream(*month, start)
	log.Printf("window stream: %d active sources, %d expected packets",
		stream.ActiveSources(), stream.ExpectedPackets())

	f, err := os.Create(*file)
	if err != nil {
		log.Fatal(err)
	}
	w, err := pcap.NewWriter(f)
	if err != nil {
		log.Fatal(err)
	}
	var pkt pcap.Packet
	// Write enough raw packets to cover NV valid ones plus filter drops.
	budget := *nv + *nv/8 + 1024
	for w.Count() < budget && stream.Next(&pkt) {
		if err := w.WritePacket(&pkt); err != nil {
			log.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %d packets to %s", w.Count(), *file)

	rf, err := os.Open(*file)
	if err != nil {
		log.Fatal(err)
	}
	defer rf.Close()
	r, err := pcap.NewReader(rf)
	if err != nil {
		log.Fatal(err)
	}
	tel := telescope.New(cfg.Darkspace, "telescope-sim", telescope.WithLeafSize(*leafSize))
	capStart := time.Now()
	win, err := tel.CaptureWindowEngine(ctx, &telescope.ReaderSource{R: r}, *nv, *workers, *batch)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("captured %d valid packets (%d dropped) over %s in %d leaves (%.0f pkts/s, workers=%d)",
		win.NV, win.Dropped, win.Duration().Round(time.Millisecond), win.Leaves,
		float64(win.NV)/time.Since(capStart).Seconds(), *workers)
	log.Printf("capture timings: %+v", win.Timings)

	// Steady-state windows: the telescope (anonymization caches, pooled
	// merge scratch, shard accumulators) is reused, so these run at the
	// warm hot-path rate rather than the cold first-window rate.
	for wn := 1; wn < *windows; wn++ {
		stream := pop.TelescopeStream(*month, start.Add(time.Duration(wn)*time.Hour))
		t0 := time.Now()
		w, err := tel.CaptureWindowEngine(ctx, stream, *nv, *workers, *batch)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("window %d: %d valid packets in %d leaves (%.0f pkts/s steady-state)",
			wn+1, w.NV, w.Leaves, float64(w.NV)/time.Since(t0).Seconds())
		log.Printf("window %d timings: %+v", wn+1, w.Timings)
		win = w
	}

	fmt.Println("Network quantities (Table II), anonymized matrix:")
	for _, row := range netquant.Compute(win.Matrix).Rows() {
		fmt.Printf("  %-32s %s\n", row[0], row[1])
	}
}
