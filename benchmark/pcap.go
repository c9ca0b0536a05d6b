package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/ipaddr"
	"repro/internal/netquant"
	"repro/internal/pcap"
	"repro/internal/radiation"
	"repro/internal/telescope"
)

// pcapInput is what set-up leaves behind: the capture file and, per
// window, what the telescope must report for it.
type pcapInput struct {
	path    string
	bytes   int64
	dropped []int         // invalid packets written ahead of each window's last valid one
	addrs   []ipaddr.Addr // window 1's distinct addresses, for the anonymizer probe
}

// pcapBogons is the share of generated packets carrying an RFC 1918
// source, high enough that the in-shard filter really drops.
const pcapBogons = 0.10

// isBogon is the benchmark's own statement of which generated packets
// the validity filter must drop: the generator's pollution carries RFC
// 1918 sources, everything else it emits is darkspace-bound from a
// public source.
func isBogon(src ipaddr.Addr) bool {
	a := uint32(src)
	return a>>24 == 10 || a>>20 == 0xAC1 || a>>16 == 0xC0A8
}

// writePcap writes scale.pcapWindows back-to-back windows of successive
// hours into one pcap file, each cut right after its NV-th valid
// packet, so a telescope capturing NV-packet windows from the open file
// consumes exactly one written window per capture.
func (r *run) writePcap(cfg core.Config) (*pcapInput, error) {
	pop, err := radiation.NewPopulation(cfg.Radiation)
	if err != nil {
		return nil, err
	}
	in := &pcapInput{path: filepath.Join(r.dir, "windows.pcap")}
	f, err := os.Create(in.path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	w, err := pcap.NewWriter(f)
	if err != nil {
		return nil, err
	}
	distinct := make(map[ipaddr.Addr]struct{})
	batch := make([]pcap.Packet, 4096)
	for k := 0; k < r.scale.pcapWindows; k++ {
		ts := cfg.SnapshotTimes[0].Add(time.Duration(k) * time.Hour)
		stream := pop.TelescopeStream(cfg.MonthOf(ts), ts)
		valid, dropped := 0, 0
		for valid < cfg.NV {
			n := stream.NextBatch(batch)
			if n == 0 {
				return nil, fmt.Errorf("window %d: stream ran dry at %d of %d valid packets", k, valid, cfg.NV)
			}
			for i := 0; i < n && valid < cfg.NV; i++ {
				p := &batch[i]
				if isBogon(p.Src) {
					dropped++
				} else {
					valid++
				}
				if k == 0 {
					distinct[p.Src] = struct{}{}
					distinct[p.Dst] = struct{}{}
				}
				if err := w.WritePacket(p); err != nil {
					return nil, err
				}
			}
		}
		in.dropped = append(in.dropped, dropped)
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	st, err := os.Stat(in.path)
	if err != nil {
		return nil, err
	}
	in.bytes = st.Size()
	for a := range distinct {
		in.addrs = append(in.addrs, a)
	}
	return in, nil
}

// pcapReplay is the wire-format path: file bytes → Table II per window,
// on a fresh telescope each repetition, so window 1 is cold (empty
// CryptoPAN table and pools) and the rest are steady.
func (r *run) pcapReplay() error {
	cfg := r.seeded(r.scale.window())
	cfg.Radiation.BogonRate = pcapBogons
	r.clients = 1

	// The file is the workload's whole set-up and is shared by every
	// repetition, so it is built several times only to time it.
	var in *pcapInput
	for i := 0; i < r.scale.setups; i++ {
		err := r.timeSetup(func() (err error) { in, err = r.writePcap(cfg); return err })
		if err != nil {
			return err
		}
	}

	var cold, steadies, walls []float64 // per repetition: window 1, median of the other windows, all of them
	// replay captures every window of the file on a fresh telescope,
	// timing them with tr nil and tracing them otherwise.
	replay := func(tr *tracer) error {
		f, err := os.Open(in.path)
		if err != nil {
			return err
		}
		defer f.Close()
		rd, err := pcap.NewReader(f)
		if err != nil {
			return err
		}
		src := &telescope.ReaderSource{R: rd}
		tel := telescope.New(cfg.Radiation.Darkspace, cfg.AnonPassphrase, telescope.WithLeafSize(cfg.LeafSize))
		root := tr.begin(-1, "replay")
		var rest []float64
		t0 := time.Now()
		for k := range in.dropped {
			unit := tr.begin(root, "window")
			w0 := time.Now()
			var w *telescope.Window
			err := tr.do(unit, "telescope.capture", func() (err error) {
				w, err = tel.CaptureWindowEngine(context.Background(), src, cfg.NV, 0, 0)
				return err
			})
			if err != nil {
				return fmt.Errorf("window %d: %w", k, err)
			}
			var q netquant.Quantities
			tr.do(unit, "netquant.table2", func() error { q = netquant.Compute(w.Matrix); return nil })
			d := since(w0)
			tr.end(unit)
			switch {
			case tr != nil:
				r.countWindow(w)
			case r.warming:
			case k == 0:
				cold = append(cold, d)
			default:
				rest = append(rest, d)
			}
			r.ops(1)
			switch {
			case w.NV != cfg.NV:
				r.failIf(fmt.Errorf("window %d: NV %d, want %d", k, w.NV, cfg.NV))
			case w.Dropped != in.dropped[k]:
				r.failIf(fmt.Errorf("window %d: dropped %d, set-up wrote %d invalid packets", k, w.Dropped, in.dropped[k]))
			case int(w.Matrix.Sum()) != cfg.NV || int(q.ValidPackets) != cfg.NV:
				r.failIf(fmt.Errorf("window %d: matrix holds %v packets, Table II says %v, want %d", k, w.Matrix.Sum(), q.ValidPackets, cfg.NV))
			}
		}
		if tr == nil && !r.warming {
			walls = append(walls, since(t0))
			steadies = append(steadies, median(rest))
		}
		tr.end(root)
		var extra [1]pcap.Packet
		if n, _ := rd.NextBatch(extra[:]); n != 0 {
			r.failIf(fmt.Errorf("capture left packets unread in the file"))
		}
		return nil
	}
	if err := r.repeat(func(int) error { return replay(nil) }); err != nil {
		return err
	}
	var raw float64 // raw packets of the steady windows of one repetition
	for _, d := range in.dropped[1:] {
		raw += float64(cfg.NV + d)
	}
	r.setMedian("wall_s", 1, walls)
	r.setMedian("latency_ms", 1e3, steadies)
	r.set("cold_window_s", median(cold), len(cold))
	r.set("window_pkts_per_s", raw/float64(len(in.dropped)-1)/median(steadies), len(steadies))
	if r.tr == nil {
		return nil
	}

	r.tr.sumChildren("window")
	if err := replay(r.tr); err != nil {
		return fmt.Errorf("traced pass: %w", err)
	}
	r.setWindowMetrics(cfg.NV, len(in.dropped))
	r.set("netquant.table2_s", r.tr.total("netquant.table2"), len(in.dropped))
	r.set("trace.overhead_share", r.tr.total("replay")/median(walls)-1, 1)
	r.set("pcap.file_bytes", float64(in.bytes), 1)
	r.anonymizerProbe(cfg, in.addrs)
	if err := r.decodeProbe(in); err != nil {
		return err
	}
	return r.replayScaling(cfg, in)
}

// decodeProbe drains the file through Reader.NextBatch alone.
func (r *run) decodeProbe(in *pcapInput) error {
	f, err := os.Open(in.path)
	if err != nil {
		return err
	}
	defer f.Close()
	rd, err := pcap.NewReader(f)
	if err != nil {
		return err
	}
	batch := make([]pcap.Packet, 4096)
	pkts := 0
	t0 := time.Now()
	for {
		n, err := rd.NextBatch(batch)
		pkts += n
		if err == io.EOF || (err == nil && n == 0) {
			break
		}
		if err != nil {
			return err
		}
	}
	d := since(t0)
	r.set("pcap.decode_pkts_per_s", float64(pkts)/d, pkts)
	r.set("pcap.bytes_per_s", float64(in.bytes)/d, 1)
	return nil
}

// replayScaling captures the file's first window on a fresh telescope
// single-threaded and again at the pinned GOMAXPROCS.
func (r *run) replayScaling(cfg core.Config, in *pcapInput) error {
	return r.scalingProbe(func() (float64, error) {
		f, err := os.Open(in.path)
		if err != nil {
			return 0, err
		}
		defer f.Close()
		rd, err := pcap.NewReader(f)
		if err != nil {
			return 0, err
		}
		tel := telescope.New(cfg.Radiation.Darkspace, cfg.AnonPassphrase, telescope.WithLeafSize(cfg.LeafSize))
		t0 := time.Now()
		_, err = tel.CaptureWindowEngine(context.Background(), &telescope.ReaderSource{R: rd}, cfg.NV, 0, 0)
		return since(t0), err
	})
}
