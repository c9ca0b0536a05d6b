package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"repro/internal/assoc"
	"repro/internal/core"
	"repro/internal/correlate"
	"repro/internal/honeyfarm"
	"repro/internal/ipaddr"
	"repro/internal/netquant"
	"repro/internal/pcap"
	"repro/internal/radiation"
	"repro/internal/report"
	"repro/internal/telescope"
	"repro/internal/tripled"
)

// studyBatch is the paper's deliverable in memory at scale_window:
// stream → Tables I-II and Figures 3-8 bytes.
func (r *run) studyBatch() error { return r.study(r.seeded(r.scale.window()), false) }

// studyStore is the same path at scale_table with every table
// round-tripped through one in-process, in-memory tripled server.
func (r *run) studyStore() error { return r.study(r.seeded(r.scale.table()), true) }

// studyOutcome is one study: the timed sections and the rendered bytes
// (seven artifacts × TSV, JSON, in report.All order).
type studyOutcome struct {
	run, first, wall float64
	artifacts        [][]byte
}

// runStudy times Pipeline.Run() start → last artifact byte rendered.
// first is the time to the first artifact's TSV: what a reader waiting
// for Table I sees.
func runStudy(p *core.Pipeline) (studyOutcome, error) {
	var out studyOutcome
	t0 := time.Now()
	res, err := p.Run()
	if err != nil {
		return out, err
	}
	out.run = since(t0)
	out.artifacts, err = renderAll(res.Report(), func() { out.first = since(t0) }, nil, -1)
	out.wall = since(t0)
	return out, err
}

// renderAll renders every artifact as TSV then JSON. afterFirst, when
// set, runs once the first artifact's TSV is out; with a tracer each
// artifact gets a span report.<id> under parent.
func renderAll(g *report.Graph, afterFirst func(), tr *tracer, parent int) ([][]byte, error) {
	var out [][]byte
	for i, id := range report.All() {
		err := tr.do(parent, "report."+string(id), func() error {
			var tsv, js bytes.Buffer
			if err := report.WriteTSV(&tsv, g, id); err != nil {
				return fmt.Errorf("render %s tsv: %w", id, err)
			}
			if i == 0 && afterFirst != nil {
				afterFirst()
			}
			if err := report.WriteJSON(&js, g, id); err != nil {
				return fmt.Errorf("render %s json: %w", id, err)
			}
			out = append(out, tsv.Bytes(), js.Bytes())
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// sameArtifacts counts one operation per rendered artifact encoding and
// one failure per encoding that differs from the oracle's bytes.
func (r *run) sameArtifacts(what string, got, want [][]byte) {
	r.ops(len(want))
	if len(got) != len(want) {
		r.failIf(fmt.Errorf("%s: %d artifact encodings, oracle has %d", what, len(got), len(want)))
		return
	}
	ids := report.All()
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			r.failIf(fmt.Errorf("%s: %s (%s) differs from the oracle (%d vs %d bytes)",
				what, ids[i/2], [2]string{"tsv", "json"}[i%2], len(got[i]), len(want[i])))
		}
	}
}

func (r *run) study(cfg core.Config, store bool) error {
	r.clients = 1
	// The oracle every repetition must match byte for byte: the same
	// study single-threaded for the in-memory workload, the same study
	// without a store for the store-backed one.
	var oracle studyOutcome
	oracleProcs := 1
	if store {
		oracleProcs = r.gomaxprocs
	}
	err := withProcs(oracleProcs, func() error {
		p, err := core.New(cfg)
		if err != nil {
			return err
		}
		oracle, err = runStudy(p)
		return err
	})
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}

	var runs, firsts, walls []float64
	err = r.repeat(func(i int) error {
		repCfg := cfg
		var srv *tripled.Server
		var p *core.Pipeline
		err := r.timeSetup(func() error {
			if store {
				var err error
				if srv, err = tripled.Serve(tripled.NewStore(), "127.0.0.1:0"); err != nil {
					return err
				}
				repCfg.StoreAddr = srv.Addr()
			}
			var err error
			p, err = core.New(repCfg)
			return err
		})
		if srv != nil {
			defer srv.Close()
		}
		if err != nil {
			return err
		}
		out, err := runStudy(p)
		if err != nil {
			return err
		}
		r.sameArtifacts(fmt.Sprintf("rep %d", i), out.artifacts, oracle.artifacts)
		if !r.warming {
			runs, firsts, walls = append(runs, out.run), append(firsts, out.first), append(walls, out.wall)
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.setMedian("wall_s", 1, walls)
	r.setMedian("latency_ms", 1e3, firsts)
	r.set("study_wall_s", median(walls), len(walls))
	r.set("core.run_s", median(runs), len(runs))
	if store {
		r.set("core.store_overhead_x", median(walls)/oracle.wall, len(walls))
	} else {
		r.set("core.run_serial_s", oracle.run, 1)
		r.set("core.scaling_efficiency", oracle.run/(median(runs)*float64(r.gomaxprocs)), len(runs))
	}
	if r.tr == nil {
		return nil
	}
	traced, err := r.studyTraced(cfg, store)
	if err != nil {
		return fmt.Errorf("traced pass: %w", err)
	}
	r.sameArtifacts("traced pass", traced, oracle.artifacts)
	r.set("trace.overhead_share", r.tr.total("study")/median(walls)-1, 1)
	return r.captureProbes(cfg)
}

// studyTraced re-runs one study with the steps called one at a time
// from here — the serial batch loop's units, taken apart at each
// module boundary — and returns the rendered artifacts, which must
// still be the oracle's bytes.
func (r *run) studyTraced(cfg core.Config, store bool) ([][]byte, error) {
	tr := r.tr
	for _, name := range []string{"core.ingest_month", "core.ingest_snapshot", "report.render_all"} {
		tr.sumChildren(name)
	}
	var db tripled.Conn
	if store {
		srv, err := tripled.Serve(tripled.NewStore(), "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer srv.Close()
		c, err := tripled.Dial(srv.Addr())
		if err != nil {
			return nil, err
		}
		defer c.Close()
		db = c
	}

	var pop *radiation.Population
	err := tr.do(-1, "radiation.population", func() (err error) {
		pop, err = radiation.NewPopulation(cfg.Radiation)
		return err
	})
	if err != nil {
		return nil, err
	}
	tel := telescope.New(cfg.Radiation.Darkspace, cfg.AnonPassphrase, telescope.WithLeafSize(cfg.LeafSize))
	farm := honeyfarm.New(cfg.Sensors, cfg.Radiation.Seed+1)
	res := &core.Result{Config: cfg, Farm: farm}

	root := tr.begin(-1, "study")
	for m := 0; m < cfg.Radiation.Months; m++ {
		start := cfg.StudyStart.AddDate(0, m, 0)
		label := start.Format("2006-01")
		unit := tr.begin(root, "core.ingest_month")
		var obs []radiation.Observation
		tr.do(unit, "radiation.month_obs", func() error { obs = pop.HoneyfarmMonth(m, start); return nil })
		var mw *honeyfarm.MonthWindow
		tr.do(unit, "honeyfarm.build", func() error { mw = farm.IngestMonth(label, start, obs); return nil })
		table := mw.Table
		tr.count("honeyfarm.rows", float64(table.NRows()))
		if db != nil {
			if err := tr.do(unit, "honeyfarm.publish", func() error { return mw.Publish(db) }); err != nil {
				return nil, err
			}
			tr.count("tripled.cells_published", float64(table.NNZ()))
			err := tr.do(unit, "honeyfarm.fetch", func() (err error) {
				table, err = honeyfarm.FetchMonthTable(db, label)
				return err
			})
			if err != nil {
				return nil, err
			}
			tr.count("tripled.cells_fetched", float64(table.NNZ()))
		}
		tr.end(unit)
		tr.count("correlate.keys", float64(table.NRows()))
		res.Study.Months = append(res.Study.Months, correlate.MonthData{Label: label, Month: m, Table: table})
	}
	for _, ts := range cfg.SnapshotTimes {
		label := ts.Format("20060102-150405")
		monthFrac := cfg.MonthOf(ts)
		unit := tr.begin(root, "core.ingest_snapshot")
		var stream *radiation.Stream
		tr.do(unit, "radiation.stream_open", func() error { stream = pop.TelescopeStream(monthFrac, ts); return nil })
		var w *telescope.Window
		err := tr.do(unit, "telescope.capture", func() (err error) {
			w, err = tel.CaptureWindowEngine(context.Background(), stream, cfg.NV, 0, 0)
			return err
		})
		if err != nil {
			return nil, err
		}
		r.countWindow(w)
		var sources *assoc.Assoc
		tr.do(unit, "telescope.sourcetable", func() error { sources = tel.SourceTable(w); return nil })
		if db != nil {
			if err := tr.do(unit, "telescope.publish", func() error { return tel.PublishSourceTable(db, label, w) }); err != nil {
				return nil, err
			}
			tr.count("tripled.cells_published", float64(sources.NNZ()))
			err := tr.do(unit, "telescope.fetch", func() (err error) {
				sources, err = telescope.FetchSourceTable(db, label)
				return err
			})
			if err != nil {
				return nil, err
			}
			tr.count("tripled.cells_fetched", float64(sources.NNZ()))
		}
		tr.end(unit)
		tr.count("correlate.keys", float64(sources.NRows()))
		res.Windows = append(res.Windows, w)
		res.Study.Snapshots = append(res.Study.Snapshots, correlate.Snapshot{Label: label, Month: monthFrac, NV: cfg.NV, Sources: sources})
	}
	tr.do(root, "correlate.freeze", func() error { res.Frozen(); return nil })
	render := tr.begin(root, "report.render_all")
	artifacts, err := renderAll(res.Report(), nil, tr, render)
	tr.end(render)
	tr.end(root)
	if err != nil {
		return nil, err
	}

	var bytesOut int
	for _, a := range artifacts {
		bytesOut += len(a)
	}
	var table2 float64
	for _, w := range res.Windows {
		t0 := time.Now()
		netquant.Compute(w.Matrix)
		table2 += since(t0)
	}
	r.set("radiation.population_s", tr.total("radiation.population"), 1)
	r.set("radiation.month_obs_s", tr.total("radiation.month_obs"), cfg.Radiation.Months)
	r.set("honeyfarm.build_s", tr.total("honeyfarm.build"), cfg.Radiation.Months)
	r.set("honeyfarm.rows", tr.counts["honeyfarm.rows"], cfg.Radiation.Months)
	r.set("telescope.sourcetable_s", tr.total("telescope.sourcetable"), len(res.Windows))
	r.setWindowMetrics(cfg.NV, len(res.Windows))
	r.set("cryptopan.table_size", float64(tel.Anonymizer().Len()), 1)
	r.set("netquant.table2_s", table2, len(res.Windows))
	r.set("correlate.freeze_s", tr.total("correlate.freeze"), 1)
	r.set("correlate.keys", tr.counts["correlate.keys"], 1)
	for _, id := range report.All() {
		r.set("report."+string(id)+"_s", tr.total("report."+string(id)), 1)
	}
	r.set("report.bytes_out", float64(bytesOut), len(artifacts))
	if store {
		pub := tr.total("honeyfarm.publish") + tr.total("telescope.publish")
		fetch := tr.total("honeyfarm.fetch") + tr.total("telescope.fetch")
		r.set("honeyfarm.publish_s", tr.total("honeyfarm.publish"), cfg.Radiation.Months)
		r.set("honeyfarm.fetch_s", tr.total("honeyfarm.fetch"), cfg.Radiation.Months)
		r.set("telescope.publish_s", tr.total("telescope.publish"), len(res.Windows))
		r.set("telescope.fetch_s", tr.total("telescope.fetch"), len(res.Windows))
		r.set("tripled.cells_published", tr.counts["tripled.cells_published"], 1)
		r.set("tripled.publish_cells_per_s", tr.counts["tripled.cells_published"]/pub, 1)
		r.set("tripled.fetch_cells_per_s", tr.counts["tripled.cells_fetched"]/fetch, 1)
	}
	return artifacts, nil
}

// countWindow records a captured window's exact counts at the capture
// boundary.
func (r *run) countWindow(w *telescope.Window) {
	r.tr.count("window.valid", float64(w.NV))
	r.tr.count("window.dropped", float64(w.Dropped))
	r.tr.count("engine.leaves", float64(w.Leaves))
	r.tr.count("hypersparse.nnz", float64(w.Matrix.NNZ()))
}

// setWindowMetrics turns the telescope.capture spans and window counts
// of the traced pass into the capture-layer metrics.
func (r *run) setWindowMetrics(nv, windows int) {
	tr := r.tr
	capture := tr.total("telescope.capture")
	raw := tr.counts["window.valid"] + tr.counts["window.dropped"]
	r.set("telescope.capture_s", capture, windows)
	r.set("telescope.capture_pkts_per_s", raw/capture, windows)
	r.set("telescope.filter_drop_share", tr.counts["window.dropped"]/raw, windows)
	r.set("engine.leaves", tr.counts["engine.leaves"], windows)
	r.set("hypersparse.nnz", tr.counts["hypersparse.nnz"], windows)
}

// captureProbes measures the capture path's layers alone on the first
// snapshot's stream: the generator drained without a telescope, the
// anonymizer's batch walk cold and warm on the window's distinct
// addresses, and the same capture single-threaded for the engine's
// scaling efficiency.
func (r *run) captureProbes(cfg core.Config) error {
	pop, err := radiation.NewPopulation(cfg.Radiation)
	if err != nil {
		return err
	}
	ts := cfg.SnapshotTimes[0]
	open := func() *radiation.Stream { return pop.TelescopeStream(cfg.MonthOf(ts), ts) }

	stream := open()
	batch := make([]pcap.Packet, 4096)
	distinct := make(map[ipaddr.Addr]struct{})
	var drained int
	var drain float64
	for drained < cfg.NV {
		t0 := time.Now()
		n := stream.NextBatch(batch)
		drain += since(t0)
		if n == 0 {
			break
		}
		drained += n
		for i := range batch[:n] {
			distinct[batch[i].Src] = struct{}{}
			distinct[batch[i].Dst] = struct{}{}
		}
	}
	r.set("radiation.stream_pkts_per_s", float64(drained)/drain, drained)
	addrs := make([]ipaddr.Addr, 0, len(distinct))
	for a := range distinct {
		addrs = append(addrs, a)
	}
	r.anonymizerProbe(cfg, addrs)

	return r.scalingProbe(func() (float64, error) {
		tel := telescope.New(cfg.Radiation.Darkspace, cfg.AnonPassphrase, telescope.WithLeafSize(cfg.LeafSize))
		src := open()
		t0 := time.Now()
		_, err := tel.CaptureWindowEngine(context.Background(), src, cfg.NV, 0, 0)
		return since(t0), err
	})
}

// scalingProbe sets engine.scaling_efficiency from one cold capture
// under GOMAXPROCS(1) and one at the pinned setting: serial wall ÷
// (default wall × gomaxprocs), 1 being perfect scaling.
func (r *run) scalingProbe(capture func() (float64, error)) error {
	var serial float64
	if err := withProcs(1, func() (err error) { serial, err = capture(); return err }); err != nil {
		return err
	}
	parallel, err := capture()
	if err != nil {
		return err
	}
	r.set("engine.scaling_efficiency", serial/(parallel*float64(r.gomaxprocs)), 1)
	return nil
}

// anonymizerProbe times Cached.AnonymizeBatch on a fresh telescope's
// anonymizer: the first call walks AES for every address, the second
// finds them all in the table.
func (r *run) anonymizerProbe(cfg core.Config, addrs []ipaddr.Addr) {
	anon := telescope.New(cfg.Radiation.Darkspace, cfg.AnonPassphrase).Anonymizer()
	for _, name := range []string{"cryptopan.batch_cold_addrs_per_s", "cryptopan.batch_warm_addrs_per_s"} {
		in := append([]ipaddr.Addr(nil), addrs...) // the batch call rewrites its argument
		t0 := time.Now()
		anon.AnonymizeBatch(in)
		r.set(name, float64(len(in))/since(t0), len(in))
	}
}
