package main

// metricDef declares one metric: BENCHMARK.json carries the same
// lists, and the package test fails when the two drift apart.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the gated metrics. The driver wants every end-to-end
// metric from every workload, so these are three slots every workload
// fills with its own user-visible quantity (latency_ms: what one
// foreground operation of the workload's own kind takes); README.md has the
// metric × workload table and the ISSUE-11 name of each cell (those
// names are reported too, as layer metrics below). Each is the median
// over a run's repetitions after one discarded warm-up, divided by the
// run's host slowdown (hostprobe.go).
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "latency_ms", Unit: "ms", Better: "lower", Bound: 0.25},
}

// perLayer are the traced pass's metrics, named module.metric. A
// workload that bypasses a layer reports 0 for it. Counts that must
// repeat exactly at a fixed seed are listed in exactCounts.
var perLayer = []metricDef{
	// The workload-specific names behind the end-to-end slots.
	{Name: "study_wall_s", Unit: "s", Better: "lower"},
	{Name: "window_pkts_per_s", Unit: "pkts/s", Better: "higher"},
	{Name: "cold_window_s", Unit: "s", Better: "lower"},
	{Name: "ingest_wall_s", Unit: "s", Better: "lower"},
	{Name: "month_visible_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "snapshot_visible_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "poll_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "put_ack_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "kv_ops_per_s", Unit: "ops/s", Better: "higher"},

	{Name: "radiation.population_s", Unit: "s", Better: "lower"},
	{Name: "radiation.month_obs_s", Unit: "s", Better: "lower"},
	{Name: "radiation.stream_pkts_per_s", Unit: "pkts/s", Better: "higher"},

	{Name: "telescope.capture_s", Unit: "s", Better: "lower"},
	{Name: "telescope.capture_pkts_per_s", Unit: "pkts/s", Better: "higher"},
	{Name: "telescope.sourcetable_s", Unit: "s", Better: "lower"},
	{Name: "telescope.filter_drop_share", Unit: "share", Better: "lower"},
	{Name: "engine.leaves", Unit: "count", Better: "lower"},
	{Name: "engine.scaling_efficiency", Unit: "share", Better: "higher"},

	{Name: "pcap.decode_pkts_per_s", Unit: "pkts/s", Better: "higher"},
	{Name: "pcap.bytes_per_s", Unit: "B/s", Better: "higher"},
	{Name: "pcap.file_bytes", Unit: "B", Better: "lower"},

	{Name: "cryptopan.batch_cold_addrs_per_s", Unit: "addrs/s", Better: "higher"},
	{Name: "cryptopan.batch_warm_addrs_per_s", Unit: "addrs/s", Better: "higher"},
	{Name: "cryptopan.table_size", Unit: "count", Better: "lower"},

	{Name: "hypersparse.nnz", Unit: "count", Better: "lower"},
	{Name: "netquant.table2_s", Unit: "s", Better: "lower"},

	{Name: "honeyfarm.build_s", Unit: "s", Better: "lower"},
	{Name: "honeyfarm.rows", Unit: "count", Better: "lower"},

	{Name: "correlate.freeze_s", Unit: "s", Better: "lower"},
	{Name: "correlate.keys", Unit: "count", Better: "lower"},

	{Name: "report.table1_s", Unit: "s", Better: "lower"},
	{Name: "report.table2_s", Unit: "s", Better: "lower"},
	{Name: "report.fig3_s", Unit: "s", Better: "lower"},
	{Name: "report.fig4_s", Unit: "s", Better: "lower"},
	{Name: "report.fig5_s", Unit: "s", Better: "lower"},
	{Name: "report.fig6_s", Unit: "s", Better: "lower"},
	{Name: "report.fig7_fig8_s", Unit: "s", Better: "lower"},
	{Name: "report.bytes_out", Unit: "B", Better: "lower"},

	{Name: "report.runs.table1", Unit: "count", Better: "lower"},
	{Name: "report.runs.table2", Unit: "count", Better: "lower"},
	{Name: "report.runs.fig3", Unit: "count", Better: "lower"},
	{Name: "report.runs.fig4", Unit: "count", Better: "lower"},
	{Name: "report.runs.fig5", Unit: "count", Better: "lower"},
	{Name: "report.runs.fig6", Unit: "count", Better: "lower"},
	{Name: "report.runs.fig7_fig8", Unit: "count", Better: "lower"},
	{Name: "daemon.ingest_month_s", Unit: "s", Better: "lower"},
	{Name: "daemon.ingest_snapshot_s", Unit: "s", Better: "lower"},
	{Name: "daemon.http_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "daemon.poll_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "daemon.polls", Unit: "count", Better: "higher"},
	{Name: "daemon.poll_late_ms", Unit: "ms", Better: "lower"},

	{Name: "core.run_s", Unit: "s", Better: "lower"},
	{Name: "core.run_serial_s", Unit: "s", Better: "lower"},
	{Name: "core.scaling_efficiency", Unit: "share", Better: "higher"},
	{Name: "core.store_overhead_x", Unit: "x", Better: "lower"},

	{Name: "honeyfarm.publish_s", Unit: "s", Better: "lower"},
	{Name: "honeyfarm.fetch_s", Unit: "s", Better: "lower"},
	{Name: "telescope.publish_s", Unit: "s", Better: "lower"},
	{Name: "telescope.fetch_s", Unit: "s", Better: "lower"},
	{Name: "tripled.cells_published", Unit: "count", Better: "lower"},
	{Name: "tripled.publish_cells_per_s", Unit: "cells/s", Better: "higher"},
	{Name: "tripled.fetch_cells_per_s", Unit: "cells/s", Better: "higher"},

	{Name: "tripled.put_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "tripled.get_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "tripled.get_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "tripled.scan_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "tripled.topdeg_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "store.put_ns", Unit: "ns", Better: "lower"},
	{Name: "store.topdeg_ms", Unit: "ms", Better: "lower"},

	{Name: "wal.append_sync_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.bytes_per_user_byte", Unit: "x", Better: "lower"},
	{Name: "wal.segments", Unit: "count", Better: "lower"},
	{Name: "wal.overhead_x", Unit: "x", Better: "lower"},
	{Name: "cluster.replication_overhead_x", Unit: "x", Better: "lower"},
	{Name: "tripled.recovery_s", Unit: "s", Better: "lower"},
	{Name: "tripled.recovered_ops", Unit: "count", Better: "lower"},

	{Name: "host.slowdown_x", Unit: "x", Better: "lower"},
	{Name: "proc.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "proc.alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "proc.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "share", Better: "lower"},
}

// exactCounts are the layer metrics that depend only on the inputs: at
// a fixed seed they repeat exactly from run to run.
var exactCounts = []string{
	"engine.leaves", "hypersparse.nnz", "telescope.filter_drop_share",
	"honeyfarm.rows", "correlate.keys", "report.bytes_out",
	"report.runs.table1", "report.runs.table2", "report.runs.fig3", "report.runs.fig4",
	"report.runs.fig5", "report.runs.fig6", "report.runs.fig7_fig8",
	"tripled.cells_published", "cryptopan.table_size", "pcap.file_bytes",
}

// workloadDef is one workload with the one-line reason it exists
// (BENCHMARK.json's "why"). A gated workload is listed in BENCHMARK.json
// and judged by the driver; the others run by name, print the same
// metrics and pass the same correctness gates, but their timings are
// too unsteady on a shared host to hold a bound (README.md, "Noise").
type workloadDef struct {
	name  string
	why   string
	gated bool
	fn    func(*run) error
}

// workloadList is in the order a bare `go run ./benchmark` runs them.
var workloadList = []workloadDef{
	{
		name:  "study_batch",
		why:   "stream to Tables I-II and Figs 3-8 in memory: every compute layer works; tripled, daemon and pcap decode are bypassed",
		gated: true,
		fn:    (*run).studyBatch,
	},
	{
		name:  "pcap_replay",
		why:   "pcap file bytes to Table II per window: decode, filter, CryptoPAN, leaf build and merge work; generator, honeyfarm, fits and store are bypassed",
		gated: true,
		fn:    (*run).pcapReplay,
	},
	{
		name: "studyd_ingest",
		why:  "months and snapshots POSTed to the resident daemon beside open-loop pollers: incremental recompute and publish work; batch scheduling is bypassed",
		fn:   (*run).studydIngest,
	},
	{
		name:  "study_store",
		why:   "the batch study with every table round-tripped through an in-memory tripled server: client, protocol and store work; WAL and replication are bypassed",
		gated: true,
		fn:    (*run).studyStore,
	},
	{
		name: "tripled_kv",
		why:  "closed-loop point ops against a 3-node R=2 cluster fsyncing every ack: WAL and replication fan-out work; the study pipeline is bypassed",
		fn:   (*run).tripledKV,
	},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloadList))
	for _, w := range workloadList {
		names = append(names, w.name)
	}
	return names
}

// gatedWorkloads are the ones BENCHMARK.json lists, in its order.
func gatedWorkloads() []workloadDef {
	var gated []workloadDef
	for _, w := range workloadList {
		if w.gated {
			gated = append(gated, w)
		}
	}
	return gated
}

// workloadByName returns the named workload.
func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloadList {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}
