// Darknet census: characterize one telescope window the way darkspace
// operators do — validity filtering, port census, degree distributions,
// and Table II aggregates — exercising the packet-level API rather than
// the end-to-end pipeline.
package main

import (
	"context"
	"fmt"
	"log"
	"sort"
	"time"

	"repro/internal/netquant"
	"repro/internal/pcap"
	"repro/internal/radiation"
	"repro/internal/stats"
	"repro/internal/telescope"
)

func main() {
	cfg := radiation.DefaultConfig()
	cfg.NumSources = 30000
	pop, err := radiation.NewPopulation(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// First pass over the raw stream: protocol and port census, the view
	// an operator gets before matrix reduction.
	start := time.Date(2020, 6, 17, 12, 0, 0, 0, time.UTC)
	stream := pop.TelescopeStream(4.5, start)
	ports := make(map[uint16]int)
	protos := make(map[string]int)
	var pkt pcap.Packet
	synCount, n := 0, 0
	for stream.Next(&pkt) && n < 1<<17 {
		n++
		protos[pkt.Proto.String()]++
		if pkt.Proto == pcap.ProtoTCP && pkt.Flags&pcap.FlagSYN != 0 {
			synCount++
			ports[pkt.DstPort]++
		}
	}
	fmt.Printf("scanned %d packets: protocols %v, %d TCP SYN probes\n", n, protos, synCount)

	type pc struct {
		port  uint16
		count int
	}
	var top []pc
	for p, c := range ports {
		top = append(top, pc{p, c})
	}
	sort.Slice(top, func(i, j int) bool { return top[i].count > top[j].count })
	fmt.Println("top scanned ports:")
	for i, t := range top {
		if i >= 8 {
			break
		}
		fmt.Printf("  %5d: %d probes\n", t.port, t.count)
	}

	// Second pass: capture a constant-packet window into an anonymized
	// matrix and reduce it.
	tel := telescope.New(cfg.Darkspace, "census-example")
	win, err := tel.CaptureWindowEngine(context.Background(), pop.TelescopeStream(4.5, start), 1<<16, 0, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwindow: %d valid packets over %s (%d dropped by filter)\n",
		win.NV, win.Duration().Round(time.Millisecond), win.Dropped)

	fmt.Println("network quantities (Table II):")
	for _, row := range netquant.Compute(win.Matrix).Rows() {
		fmt.Printf("  %-32s %s\n", row[0], row[1])
	}

	// Degree distributions with the paper's logarithmic binning.
	b := netquant.SourcePacketDistribution(win.Matrix)
	alpha, delta, _ := stats.FitZipfMandelbrot(b, float64(win.NV))
	fmt.Printf("\nsource-packet distribution: %d bins, ZM fit alpha=%.2f delta=%.2f\n",
		len(b.Counts), alpha, delta)
	probs := b.Prob()
	for i, p := range probs {
		if p == 0 {
			continue
		}
		bar := ""
		for k := 0; k < int(p*200); k++ {
			bar += "#"
		}
		fmt.Printf("  d=2^%-2d %-7.4f %s\n", i, p, bar)
	}

	// Fan-out: unique destinations per source, binned the same way; the
	// top bin is the last non-empty one.
	var fanouts []float64
	win.Matrix.RowScan(func(_ uint32, _ float64, nnz int) {
		fanouts = append(fanouts, float64(nnz))
	})
	fanout := stats.LogBin(fanouts)
	last := len(fanout.Counts) - 1
	for last >= 0 && fanout.Counts[last] == 0 {
		last--
	}
	fmt.Printf("source fan-out spans %d octaves (max fan-out %d)\n",
		len(fanout.Counts), int(fanout.Centers[last]))
}
