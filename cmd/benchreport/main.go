// Command benchreport measures the window-build hot path — or, with
// -study, the whole-study scheduler and correlation kernels; or, with
// -tripled, the replicated store's load phases — and emits (or checks)
// the committed JSON baselines the perf trajectory is judged against.
//
// Usage:
//
//	benchreport [-study|-tripled] [-out FILE] [-check FILE] [-quick] [-max-regress 0.20]
//
// Without -study the report is the BENCH_hotpath.json schema:
// packets/sec, ns/op, and allocs/op for engine window capture, leaf
// build, hierarchical merge, and the fused netquant reduction. With
// -out, a fresh report is written as JSON. With -check, the same
// measurements run and then gate against the committed baseline:
//
//   - allocs/op gates are absolute (machine-independent): steady-state
//     leaf build <= 8, pooled window merge <= 8.
//   - the pooled k-way merge must beat the allocate-per-level Add tree
//     (merge_speedup >= the baseline's gate, machine-independent).
//   - packets/sec metrics must not regress more than -max-regress
//     (default 20%) below the committed baseline values. Below 4 CPUs
//     this comparison is noise-dominated (a shared single-core box
//     swings past any sane margin run to run), so it is annotated and
//     skipped there — the machine-independent alloc and speedup gates
//     always run.
//   - the slab ingest front-end gates are required in the baseline
//     (-check fails, never skips, when one is absent): drop-heavy
//     filtered window captures (filter_window_w1/w8) must stay within
//     filter_window_allocs_max — far under one alloc per packet — and
//     the steady-state batch paths (pcap_batch_read, a warm
//     Reader.NextBatch; cryptopan_batch_warm, an all-hit
//     Cached.AnonymizeBatch slab) must be allocation-free (gate 0).
//
// With -study the report is the BENCH_study.json schema: whole-study
// wall clock at Workers=1 and for the parallel
// scheduler (with engine packets/sec), their speedup, the report
// graph's fit_wall phase (the Fig 7/8 GridSearch2 sweeps at
// one worker vs the pool-scheduled fan-out, with fits/sec), and
// ns/op + allocs/op for the frozen correlation kernels (Figure 4's
// peak and Figures 5-8's temporal series). Its gates:
//
//   - the correlation kernels must be allocation-free at steady state
//     (machine-independent, always enforced);
//   - the parallel study must be >= 2x the serial oracle — enforced
//     only on machines with at least study_speedup_min_cpus CPUs,
//     since the fan-out merely interleaves on fewer cores; below that
//     the report records the measured value and annotates the skip
//     (the numcpu field makes the context machine-readable);
//   - the pool-scheduled fits must be >= 2x the serial sweep, with the
//     same CPU floor (fit_speedup_min_cpus) and annotation policy —
//     and must render fig7_fig8 byte-identical to the serial oracle,
//     which is checked unconditionally on every -study run.
//
// With -tripled the report is the BENCH_tripled.json schema: the
// shared loadgen workload run four ways — one in-memory server, one
// durable (WAL-on, interval sync) server, a 3-node R=2
// consistent-hash cluster, and the same cluster with one replica
// blackholed at the halfway barrier — with cells+queries/sec and
// p50/p95/p99 latency per op kind and phase. Its gates, all required
// in the baseline (-check fails, not skips, when any is absent):
//
//   - replication_overhead (single-node PUT throughput over 3-node,
//     both measured in the same run, so machine-relative) must stay
//     under the baseline's replication_overhead_max;
//   - wal_overhead (in-memory single-node PUT throughput over the
//     durable node's, same run) must stay under wal_overhead_max —
//     durability is not allowed to tax ingest more than ~1.5x;
//   - the blackholed phase must finish every op AND record at least
//     failovers_min non-primary reads — proof the degraded path ran.
//
// The quick -study fixture measures an 8-snapshot study (the paper's
// realistic 5-snapshot study caps the ideal 4-worker speedup at ~2.5x),
// so its study gate floor is 4 CPUs and fires on a standard 4-vCPU CI
// runner; the full-scale report keeps the 5-snapshot study and its
// 6-CPU floor as the trajectory record.
//
// Every report records gomaxprocs and numcpu so cross-machine numbers
// (e.g. multi-worker metrics measured on a 1-CPU container, where w8
// can lose to w1) can be read in context. -check additionally fails —
// for either schema — when the runner has >= 4 CPUs but the baseline
// was recorded with fewer: such a baseline's CPU-floored gates can
// never fire and its throughput floors describe the wrong machine
// class, so it must be regenerated where the check runs.
//
// CI therefore regenerates the quick baselines on its own runner
// (`benchreport -quick -out` / `-study -quick -out`) and -checks
// against those, failing the build if any speedup gate reports an
// annotated skip — the gates actually run, on honest multi-core
// numbers. The committed BENCH_*_quick.json files are the
// container-recorded references for same-machine work, and
// BENCH_hotpath.json / BENCH_study.json are the full-scale trajectory
// records; the stale-baseline rule above keeps any of them from being
// checked against a machine class they were not measured on.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/correlate"
	"repro/internal/cryptopan"
	"repro/internal/faultinject"
	"repro/internal/hypersparse"
	"repro/internal/ipaddr"
	"repro/internal/netquant"
	"repro/internal/pcap"
	"repro/internal/radiation"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/telescope"
	"repro/internal/tripled"
	"repro/internal/tripled/cluster"
	"repro/internal/tripled/loadgen"
)

// Metric is one benchmark's result row.
type Metric struct {
	NsOp     float64 `json:"ns_op"`
	AllocsOp float64 `json:"allocs_op"`
	BytesOp  float64 `json:"bytes_op"`
	// ItemsPerSec is packets/sec for window benches, entries/sec for
	// matrix benches, cells+queries/sec for tripled load phases.
	ItemsPerSec float64 `json:"items_per_sec,omitempty"`
	// Latency percentiles, tripled schema only: the load generator
	// reports distribution, not just throughput, because failover cost
	// lives entirely in the tail.
	P50Ns float64 `json:"p50_ns,omitempty"`
	P95Ns float64 `json:"p95_ns,omitempty"`
	P99Ns float64 `json:"p99_ns,omitempty"`
}

// Report is the BENCH_hotpath.json / BENCH_study.json schema.
type Report struct {
	Schema     string            `json:"schema"`
	Generated  string            `json:"generated"`
	GoVersion  string            `json:"go"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	NumCPU     int               `json:"numcpu"`
	Quick      bool              `json:"quick"`
	Metrics    map[string]Metric `json:"metrics"`
	// MergeSpeedup is the pooled k-way merge's advantage over the
	// allocate-per-level Add tree on identical leaves (machine-relative,
	// measured in-process). Hot-path schema only.
	MergeSpeedup float64 `json:"merge_speedup,omitempty"`
	// StudySpeedup is the parallel scheduler's whole-study advantage
	// over the Workers=1 run. Study schema only; read it
	// together with numcpu — on a 1-CPU machine it hovers near 1x by
	// construction.
	StudySpeedup float64 `json:"study_speedup,omitempty"`
	// FitSpeedup is the report graph's fit-phase advantage: the
	// pool-scheduled per-(snapshot, band) GridSearch2 sweeps vs the
	// one-worker sweep. Study schema only; same numcpu
	// caveat as StudySpeedup.
	FitSpeedup float64 `json:"fit_speedup,omitempty"`
	// ReplicationOverhead is the 3-node R=2 cluster's PUT cost over the
	// single-node baseline (single cells/sec divided by cluster
	// cells/sec), measured in-process in the same run so it is
	// machine-relative. Tripled schema only.
	ReplicationOverhead float64 `json:"replication_overhead,omitempty"`
	// Failovers counts reads the blackholed-replica phase served from a
	// non-primary node — proof the failover path actually ran, not just
	// that the workload finished. Tripled schema only.
	Failovers int `json:"failovers,omitempty"`
	// WALOverhead is the durable (WAL-on, interval sync) single node's
	// PUT cost over the in-memory single node (memory cells/sec divided
	// by durable cells/sec), both measured in the same run so it is
	// machine-relative. Tripled schema only.
	WALOverhead float64 `json:"wal_overhead,omitempty"`
	Gates       Gates   `json:"gates"`
	// Seed preserves the pre-refactor measurements this PR started from,
	// so the trajectory keeps its origin even as the baseline moves.
	Seed map[string]Metric `json:"seed,omitempty"`
}

// Gates are the machine-independent pass bars -check enforces.
type Gates struct {
	LeafBuildAllocsMax float64 `json:"leaf_build_allocs_max,omitempty"`
	WindowMergeAllocs  float64 `json:"window_merge_allocs_max,omitempty"`
	MergeSpeedupMin    float64 `json:"merge_speedup_min,omitempty"`
	NetquantAllocsMax  float64 `json:"netquant_allocs_max,omitempty"`
	// Study gates: the correlation kernels' absolute allocation budget
	// (always enforced) and the whole-study speedup floor (enforced only
	// on machines with at least StudySpeedupMinCPUs CPUs, annotated
	// otherwise — a 1-CPU runner cannot measure fan-out).
	CorrelateAllocsMax  float64 `json:"correlate_allocs_max"`
	StudySpeedupMin     float64 `json:"study_speedup_min,omitempty"`
	StudySpeedupMinCPUs int     `json:"study_speedup_min_cpus,omitempty"`
	// Fit-phase gates: the pool-scheduled Fig 7/8 sweep's floor over
	// the serial oracle, CPU-floored like the study speedup.
	FitSpeedupMin     float64 `json:"fit_speedup_min,omitempty"`
	FitSpeedupMinCPUs int     `json:"fit_speedup_min_cpus,omitempty"`
	// Tripled cluster gates: how much replication is allowed to cost
	// (machine-relative, both sides measured in the same run) and how
	// many failovers the blackholed phase must record for the run to
	// count as having exercised the degraded path at all. Both are
	// required in a tripled baseline — compare fails, not skips, when
	// they are absent, so a truncated baseline cannot pass vacuously.
	ReplicationOverheadMax float64 `json:"replication_overhead_max,omitempty"`
	FailoversMin           int     `json:"failovers_min,omitempty"`
	// WALOverheadMax caps what durability may cost ingest: the WAL-on
	// (interval sync) single node vs the in-memory single node, measured
	// in the same run. Required in a tripled baseline like the cluster
	// gates above — compare fails, not skips, when it is absent.
	WALOverheadMax float64 `json:"wal_overhead_max,omitempty"`
	// Ingest front-end gates (hotpath schema), pointer-typed because
	// zero is a meaningful bar — the batch decode and warm batch
	// anonymization are allocation-free by contract — so an absent gate
	// must read as "baseline predates the slab front-end" and fail the
	// check, never pass vacuously as <= 0.
	//
	// FilterWindowAllocsMax bounds a whole drop-heavy window capture
	// (filter_window_w1/w8): the bar is far above the fixed per-capture
	// cost (goroutines, channels, result structs) and far below one
	// alloc per packet, so it trips exactly when filtering or mapping
	// regresses to per-packet allocation.
	FilterWindowAllocsMax *float64 `json:"filter_window_allocs_max,omitempty"`
	// PcapBatchAllocsMax bounds steady-state pcap_batch_read (a warm
	// Reader.NextBatch call): 0.
	PcapBatchAllocsMax *float64 `json:"pcap_batch_allocs_max,omitempty"`
	// CryptopanBatchAllocsMax bounds cryptopan_batch_warm (an all-hit
	// Cached.AnonymizeBatch slab): 0.
	CryptopanBatchAllocsMax *float64 `json:"cryptopan_batch_allocs_max,omitempty"`
}

func gate(v float64) *float64 { return &v }

func defaultGates() Gates {
	return Gates{
		LeafBuildAllocsMax: 8,
		WindowMergeAllocs:  8,
		// The pooled merge's guarantee is allocation-freedom at equal or
		// better speed; the >= 2x hot-path gate (builder + merge
		// combined) lives in hypersparse's TestWindowBuildSpeedup. The
		// floor sits 10% under parity to absorb timer noise on loaded
		// CI machines.
		MergeSpeedupMin:   0.9,
		NetquantAllocsMax: 8,
		// 2048 is ~10x the fixed per-capture cost and ~8x under one
		// alloc per packet at the quick scale (2^14), so it separates
		// the two regimes cleanly at either fixture size.
		FilterWindowAllocsMax:   gate(2048),
		PcapBatchAllocsMax:      gate(0),
		CryptopanBatchAllocsMax: gate(0),
	}
}

func defaultStudyGates(quick bool) Gates {
	g := Gates{
		CorrelateAllocsMax: 0,
		// The >= 2x whole-study bar of the scheduler's acceptance
		// criteria. The full-scale CPU floor is 6, not 4: that report
		// measures the realistic 5-snapshot study, whose ideal speedup
		// on 4-5 CPUs is only ~2.5x (5 snapshot jobs, one worker runs
		// two), leaving no margin for a noisy shared runner. From 6
		// CPUs every snapshot runs concurrently and the ideal is
		// ~4-5x, so 2x has real headroom.
		StudySpeedupMin:     2,
		StudySpeedupMinCPUs: 6,
		// The fit jobs are pure CPU and plentiful (every snapshot
		// contributes ~a dozen bands), so unlike the 5-snapshot study
		// wall, 4 CPUs already give the >= 2x bar real headroom.
		FitSpeedupMin:     2,
		FitSpeedupMinCPUs: 4,
	}
	if quick {
		// The quick fixture measures an 8-snapshot study (see
		// studyConfig) precisely so the gate can fire on the 4-vCPU CI
		// runner: 8 jobs on 4 workers is ~4x ideal, so >= 2x needs only
		// ~50% parallel efficiency — the same margin core's
		// TestStudySpeedup is built on.
		g.StudySpeedupMinCPUs = 4
	}
	return g
}

func main() {
	var (
		out        = flag.String("out", "", "write the report JSON to this file ('-' = stdout)")
		check      = flag.String("check", "", "compare against this committed baseline JSON and exit non-zero on regression")
		quick      = flag.Bool("quick", false, "small fixture for CI smoke (2^14-packet windows)")
		study      = flag.Bool("study", false, "measure the whole-study scheduler and correlation kernels (BENCH_study.json schema) instead of the window hot path")
		tripled    = flag.Bool("tripled", false, "measure the tripled store single-node vs 3-node-cluster vs blackholed-failover load phases (BENCH_tripled.json schema)")
		maxRegress = flag.Float64("max-regress", 0.20, "allowed fractional packets/sec regression vs the baseline")
	)
	flag.Parse()
	if *out == "" && *check == "" {
		*out = "-"
	}
	if *study && *tripled {
		log.Fatal("benchreport: -study and -tripled are separate schemas; pick one")
	}

	var rep *Report
	switch {
	case *study:
		rep = measureStudy(*quick)
	case *tripled:
		rep = measureTripled(*quick)
	default:
		rep = measure(*quick)
	}

	if *out != "" {
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		buf = append(buf, '\n')
		if *out == "-" {
			os.Stdout.Write(buf)
		} else if err := os.WriteFile(*out, buf, 0o644); err != nil {
			log.Fatal(err)
		}
	}

	if *check != "" {
		base, err := loadReport(*check)
		if err != nil {
			log.Fatalf("benchreport: load baseline: %v", err)
		}
		if errs := compare(rep, base, *maxRegress); len(errs) > 0 {
			for _, e := range errs {
				fmt.Fprintln(os.Stderr, "FAIL:", e)
			}
			os.Exit(1)
		}
		if *study {
			fmt.Printf("benchreport: all gates pass against %s (study speedup %.2fx, fit speedup %.2fx on %d CPUs)\n",
				*check, rep.StudySpeedup, rep.FitSpeedup, rep.NumCPU)
		} else if *tripled {
			fmt.Printf("benchreport: all gates pass against %s (replication overhead %.2fx, WAL overhead %.2fx, %d failovers under blackhole)\n",
				*check, rep.ReplicationOverhead, rep.WALOverhead, rep.Failovers)
		} else {
			fmt.Printf("benchreport: all gates pass against %s (merge speedup %.2fx)\n", *check, rep.MergeSpeedup)
		}
	}
}

func loadReport(path string) (*Report, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(buf, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// compare enforces the gates: absolute alloc budgets and the in-process
// speedups from the fresh run, throughput regression vs the baseline.
func compare(fresh, base *Report, maxRegress float64) []string {
	var errs []string
	if fresh.Schema != base.Schema {
		return []string{fmt.Sprintf("schema mismatch: fresh %q vs baseline %q", fresh.Schema, base.Schema)}
	}
	// A baseline recorded on fewer CPUs than the speedup gates' floor is
	// a trap: checked on a multi-core runner, its CPU-floored gates and
	// per-machine throughput floors describe a machine class the runner
	// is not in, so the gates that matter most either skip forever or
	// pass vacuously. A gate that can never fire is a bug — fail loudly
	// and demand a baseline regenerated where the check runs.
	const minGateCPUs = 4
	if fresh.NumCPU >= minGateCPUs && base.NumCPU < minGateCPUs {
		regen := "benchreport -out FILE"
		switch fresh.Schema {
		case studySchema:
			regen = "benchreport -study -out FILE"
		case tripledSchema:
			regen = "benchreport -tripled -out FILE"
		}
		errs = append(errs, fmt.Sprintf(
			"stale baseline: recorded at %d CPUs but this runner has %d (>= %d); "+
				"regenerate it on this machine class (%s) so the CPU-floored "+
				"speedup gates can actually fire",
			base.NumCPU, fresh.NumCPU, minGateCPUs, regen))
	}
	g := base.Gates
	checkAllocs := func(name string, max float64) {
		m, ok := fresh.Metrics[name]
		if !ok {
			errs = append(errs, fmt.Sprintf("metric %q missing from fresh run", name))
			return
		}
		if m.AllocsOp > max {
			errs = append(errs, fmt.Sprintf("%s: %.1f allocs/op exceeds gate %.0f", name, m.AllocsOp, max))
		}
	}
	if fresh.Schema == tripledSchema {
		// Fail, don't skip, when the baseline lacks the cluster or WAL
		// gates: a BENCH_tripled.json without them would turn this check
		// into a throughput-only comparison that passes while failover or
		// durability is broken.
		if g.ReplicationOverheadMax == 0 || g.FailoversMin == 0 || g.WALOverheadMax == 0 {
			errs = append(errs, fmt.Sprintf(
				"baseline %q is missing the tripled gates (replication_overhead_max=%v, failovers_min=%v, wal_overhead_max=%v); "+
					"regenerate it with benchreport -tripled -out FILE",
				base.Schema, g.ReplicationOverheadMax, g.FailoversMin, g.WALOverheadMax))
		} else {
			if fresh.ReplicationOverhead > g.ReplicationOverheadMax {
				errs = append(errs, fmt.Sprintf("replication_overhead %.2fx exceeds gate %.2fx",
					fresh.ReplicationOverhead, g.ReplicationOverheadMax))
			}
			if fresh.Failovers < g.FailoversMin {
				errs = append(errs, fmt.Sprintf(
					"blackholed phase recorded %d failovers, gate wants >= %d: the degraded path did not run",
					fresh.Failovers, g.FailoversMin))
			}
			if fresh.WALOverhead > g.WALOverheadMax {
				errs = append(errs, fmt.Sprintf("wal_overhead %.2fx exceeds gate %.2fx: durability crept onto the ingest hot path",
					fresh.WALOverhead, g.WALOverheadMax))
			}
		}
	} else if fresh.Schema == studySchema {
		checkAllocs("correlate_peak", g.CorrelateAllocsMax)
		checkAllocs("correlate_temporal", g.CorrelateAllocsMax)
		if fresh.NumCPU >= g.StudySpeedupMinCPUs {
			if fresh.StudySpeedup < g.StudySpeedupMin {
				errs = append(errs, fmt.Sprintf("study_speedup %.2fx below gate %.2fx at %d CPUs",
					fresh.StudySpeedup, g.StudySpeedupMin, fresh.NumCPU))
			}
		} else {
			fmt.Printf("benchreport: %d CPUs < %d required to measure study fan-out; "+
				"study_speedup gate annotated and skipped (measured %.2fx)\n",
				fresh.NumCPU, g.StudySpeedupMinCPUs, fresh.StudySpeedup)
		}
		if fresh.NumCPU >= g.FitSpeedupMinCPUs {
			if fresh.FitSpeedup < g.FitSpeedupMin {
				errs = append(errs, fmt.Sprintf("fit_speedup %.2fx below gate %.2fx at %d CPUs",
					fresh.FitSpeedup, g.FitSpeedupMin, fresh.NumCPU))
			}
		} else if g.FitSpeedupMinCPUs > 0 {
			fmt.Printf("benchreport: %d CPUs < %d required to measure fit fan-out; "+
				"fit_speedup gate annotated and skipped (measured %.2fx)\n",
				fresh.NumCPU, g.FitSpeedupMinCPUs, fresh.FitSpeedup)
		}
	} else {
		checkAllocs("leaf_build", g.LeafBuildAllocsMax)
		checkAllocs("window_merge_pooled", g.WindowMergeAllocs)
		checkAllocs("netquant_fused", g.NetquantAllocsMax)
		if fresh.MergeSpeedup < g.MergeSpeedupMin {
			errs = append(errs, fmt.Sprintf("merge_speedup %.2fx below gate %.2fx", fresh.MergeSpeedup, g.MergeSpeedupMin))
		}
		// The slab front-end gates are required: a hotpath baseline
		// without them predates the batched ingest path, and letting the
		// check skip would mean the zero-alloc contracts are never
		// enforced. Fail and demand a regenerated baseline.
		checkRequired := func(name string, max *float64, field string) {
			if max == nil {
				errs = append(errs, fmt.Sprintf(
					"baseline is missing required gate %q (predates the slab ingest front-end); "+
						"regenerate it with benchreport -out FILE", field))
				return
			}
			checkAllocs(name, *max)
		}
		checkRequired("filter_window_w1", g.FilterWindowAllocsMax, "filter_window_allocs_max")
		checkRequired("filter_window_w8", g.FilterWindowAllocsMax, "filter_window_allocs_max")
		checkRequired("pcap_batch_read", g.PcapBatchAllocsMax, "pcap_batch_allocs_max")
		checkRequired("cryptopan_batch_warm", g.CryptopanBatchAllocsMax, "cryptopan_batch_allocs_max")
	}
	if fresh.Quick != base.Quick {
		// Throughput is only comparable at the same fixture scale; the
		// alloc and speedup gates above are scale-robust and still ran.
		fmt.Printf("benchreport: scale mismatch (fresh quick=%v, baseline quick=%v); skipping items/s regression check\n",
			fresh.Quick, base.Quick)
		return errs
	}
	if fresh.NumCPU < minGateCPUs {
		// On a box below the gate floor (a shared single-core container)
		// run-to-run throughput swings past any sane regression margin,
		// so an items/s comparison measures the neighbors, not the code.
		// Same policy as the speedup gates: annotate and skip, loudly —
		// the alloc and in-process speedup gates above are
		// machine-independent and still ran.
		fmt.Printf("benchreport: %d CPUs < %d required for stable throughput measurement; "+
			"items/s regression check annotated and skipped\n", fresh.NumCPU, minGateCPUs)
		return errs
	}
	for name, bm := range base.Metrics {
		if bm.ItemsPerSec == 0 {
			continue
		}
		fm, ok := fresh.Metrics[name]
		if !ok {
			errs = append(errs, fmt.Sprintf("metric %q missing from fresh run", name))
			continue
		}
		floor := bm.ItemsPerSec * (1 - maxRegress)
		if fm.ItemsPerSec < floor {
			errs = append(errs, fmt.Sprintf("%s: %.0f items/s regressed more than %.0f%% from baseline %.0f",
				name, fm.ItemsPerSec, maxRegress*100, bm.ItemsPerSec))
		}
	}
	return errs
}

// benchEntries synthesizes window-shaped triples: heavy-tailed sources
// over 2^32, destinations inside one /8 (the darkspace).
func benchEntries(leaves, perLeaf int) [][]hypersparse.Entry {
	rng := uint64(0x9E3779B97F4A7C15)
	next := func() uint32 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return uint32(rng)
	}
	hot := make([]uint32, 64)
	for i := range hot {
		hot[i] = next()
	}
	out := make([][]hypersparse.Entry, leaves)
	for l := range out {
		es := make([]hypersparse.Entry, perLeaf)
		for i := range es {
			row := next()
			if next()%4 != 0 {
				row = hot[next()%uint32(len(hot))]
			}
			es[i] = hypersparse.Entry{Row: row, Col: 0x2C000000 | next()&0x00FFFFFF, Val: 1}
		}
		out[l] = es
	}
	return out
}

func toMetric(r testing.BenchmarkResult, items int) Metric {
	m := Metric{
		NsOp:     float64(r.NsPerOp()),
		AllocsOp: float64(r.AllocsPerOp()),
		BytesOp:  float64(r.AllocedBytesPerOp()),
	}
	if items > 0 && r.T > 0 {
		m.ItemsPerSec = float64(items) * float64(r.N) / r.T.Seconds()
	}
	return m
}

func measure(quick bool) *Report {
	leafSize := 1 << 12
	leaves := 16
	nv := 1 << 16
	sources := 40000
	if quick {
		leafSize = 1 << 10
		leaves = 8
		nv = 1 << 14
		sources = 10000
	}
	rep := &Report{
		Schema:     "bench_hotpath/v1",
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Quick:      quick,
		Metrics:    map[string]Metric{},
		Gates:      defaultGates(),
	}

	es := benchEntries(leaves, leafSize)

	// Steady-state leaf build: one retained builder, entries appended and
	// compiled per leaf.
	builder := hypersparse.NewBuilder(leafSize)
	rep.Metrics["leaf_build"] = toMetric(testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, e := range es[i%len(es)] {
				builder.Add(e.Row, e.Col, e.Val)
			}
			builder.Build()
		}
	}), leafSize)

	mats := make([]*hypersparse.Matrix, len(es))
	totalEntries := 0
	for i, entries := range es {
		mats[i] = hypersparse.FromEntries(entries)
		totalEntries += mats[i].NNZ()
	}

	// Pooled k-way merge vs the allocate-per-level Add tree.
	var dst hypersparse.Matrix
	hypersparse.SumInto(&dst, mats...)
	pooled := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			hypersparse.SumInto(&dst, mats...)
		}
	})
	rep.Metrics["window_merge_pooled"] = toMetric(pooled, totalEntries)
	addTree := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cur := append([]*hypersparse.Matrix(nil), mats...)
			for len(cur) > 1 {
				next := cur[:0:0]
				for j := 0; j < len(cur); j += 2 {
					if j+1 == len(cur) {
						next = append(next, cur[j])
					} else {
						next = append(next, hypersparse.Add(cur[j], cur[j+1]))
					}
				}
				cur = next
			}
		}
	})
	rep.Metrics["window_merge_addtree"] = toMetric(addTree, totalEntries)
	if pooled.NsPerOp() > 0 {
		rep.MergeSpeedup = float64(addTree.NsPerOp()) / float64(pooled.NsPerOp())
	}

	// Fused Table II reduction on the merged window.
	window := hypersparse.HierSum(mats, 0)
	netquant.Compute(window) // warm the column-scan pool
	rep.Metrics["netquant_fused"] = toMetric(testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			netquant.Compute(window)
		}
	}), window.NNZ())

	// Engine windows: cold (fresh telescope per window, the historical
	// BenchmarkEngineWindow shape) and steady (telescope reused).
	cfg := radiation.DefaultConfig()
	cfg.NumSources = sources
	cfg.ZM = stats.PaperZM(1 << 14)
	pop, err := radiation.NewPopulation(cfg)
	if err != nil {
		log.Fatal(err)
	}
	for _, w := range []int{1, 8} {
		w := w
		rep.Metrics[fmt.Sprintf("engine_window_cold_w%d", w)] = toMetric(testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tel := telescope.New(cfg.Darkspace, "bench-key", telescope.WithLeafSize(leafSize))
				capture(b, tel, pop, nv, w)
			}
		}), nv)
		tel := telescope.New(cfg.Darkspace, "bench-key", telescope.WithLeafSize(leafSize))
		capture(nil, tel, pop, nv, w) // warm anonymization caches
		rep.Metrics[fmt.Sprintf("engine_window_steady_w%d", w)] = toMetric(testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				capture(b, tel, pop, nv, w)
			}
		}), nv)
	}

	// Drop-heavy filtered windows: the same engine capture against a
	// population polluted with 15% bogon sources, so the in-shard filter
	// path (evaluate, count the drop, compact the slab) carries real
	// weight. Items are raw packets (NV + Dropped) — the quantity the
	// filter actually processes.
	fcfg := radiation.DefaultConfig()
	fcfg.NumSources = sources
	fcfg.ZM = stats.PaperZM(1 << 14)
	fcfg.BogonRate = 0.15
	fpop, err := radiation.NewPopulation(fcfg)
	if err != nil {
		log.Fatal(err)
	}
	for _, w := range []int{1, 8} {
		w := w
		tel := telescope.New(fcfg.Darkspace, "bench-key", telescope.WithLeafSize(leafSize))
		raw := captureFiltered(nil, tel, fpop, nv, w) // warm caches; also pins the fixture's raw count
		rep.Metrics[fmt.Sprintf("filter_window_w%d", w)] = toMetric(testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				captureFiltered(b, tel, fpop, nv, w)
			}
		}), raw)
	}

	// Wire-format slab decode: a pcap capture synthesized once from the
	// population, decoded through a warm Reader at steady state —
	// NextBatch (the slab path, zero-alloc by contract) vs ReadPacket
	// (the per-packet oracle).
	pcapPackets := 1 << 14
	if quick {
		pcapPackets = 1 << 12
	}
	var pcapBuf bytes.Buffer
	pw, err := pcap.NewWriter(&pcapBuf)
	if err != nil {
		log.Fatal(err)
	}
	pst := pop.TelescopeStream(4.5, time.Unix(0, 0))
	var pkt pcap.Packet
	for i := 0; i < pcapPackets && pst.Next(&pkt); i++ {
		if err := pw.WritePacket(&pkt); err != nil {
			log.Fatal(err)
		}
	}
	pw.Flush()
	pcapData := pcapBuf.Bytes()
	newReader := func() *pcap.Reader {
		r, err := pcap.NewReader(bytes.NewReader(pcapData))
		if err != nil {
			log.Fatal(err)
		}
		return r
	}
	slab := make([]pcap.Packet, 512)
	br := newReader()
	if n, _ := br.NextBatch(slab); n != len(slab) {
		log.Fatalf("benchreport: pcap warmup decoded %d packets", n)
	}
	rep.Metrics["pcap_batch_read"] = toMetric(testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n, _ := br.NextBatch(slab)
			if n == 0 {
				b.StopTimer()
				br = newReader()
				b.StartTimer()
			}
		}
	}), len(slab))
	pr := newReader()
	rep.Metrics["pcap_read_packet"] = toMetric(testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		var p pcap.Packet
		for i := 0; i < b.N; i++ {
			if err := pr.ReadPacket(&p); err != nil {
				b.StopTimer()
				pr = newReader()
				b.StartTimer()
			}
		}
	}), 1)

	// Batched CryptoPAN: one 4096-address slab of the population's
	// packet endpoints (heavy-tailed, prefix-clustered — the telescope's
	// real shape). Cold pays the prefix-shared AES walks every op; warm
	// is the all-hit memo path and must be allocation-free.
	addrs := make([]ipaddr.Addr, 0, 4096)
	ast := pop.TelescopeStream(4.5, time.Unix(0, 0))
	for len(addrs) < cap(addrs) && ast.Next(&pkt) {
		addrs = append(addrs, pkt.Src, pkt.Dst)
	}
	work := make([]ipaddr.Addr, len(addrs))
	anon := cryptopan.NewFromPassphrase("bench-key")
	anon.Anonymize(0) // build the top-16 flip table outside the loop
	rep.Metrics["cryptopan_batch_cold"] = toMetric(testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			copy(work, addrs)
			anon.AnonymizeBatch(work)
		}
	}), len(addrs))
	cached := cryptopan.NewCached(cryptopan.NewFromPassphrase("bench-key"))
	copy(work, addrs)
	cached.AnonymizeBatch(work) // fill the memo: every later slab is all-hit
	rep.Metrics["cryptopan_batch_warm"] = toMetric(testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			copy(work, addrs)
			cached.AnonymizeBatch(work)
		}
	}), len(addrs))
	return rep
}

// captureFiltered is capture against a drop-heavy population; it
// returns the raw packet count (NV + Dropped) the filter processed.
func captureFiltered(b *testing.B, tel *telescope.Telescope, pop *radiation.Population, nv, workers int) int {
	w, err := tel.CaptureWindowEngine(context.Background(),
		pop.TelescopeStream(4.5, time.Unix(0, 0)), nv, workers, 0)
	if err != nil {
		if b != nil {
			b.Fatal(err)
		}
		log.Fatal(err)
	}
	if w.NV != nv {
		if b != nil {
			b.Fatalf("short filtered window: %d", w.NV)
		}
		log.Fatalf("short filtered window: %d", w.NV)
	}
	return w.NV + w.Dropped
}

func capture(b *testing.B, tel *telescope.Telescope, pop *radiation.Population, nv, workers int) {
	w, err := tel.CaptureWindowEngine(context.Background(),
		pop.TelescopeStream(4.5, time.Unix(0, 0)), nv, workers, 0)
	if err != nil {
		if b != nil {
			b.Fatal(err)
		}
		log.Fatal(err)
	}
	if w.NV != nv {
		if b != nil {
			b.Fatalf("short window: %d", w.NV)
		}
		log.Fatalf("short window: %d", w.NV)
	}
}

// studySchema marks BENCH_study.json reports.
const studySchema = "bench_study/v1"

// tripledSchema marks BENCH_tripled.json reports.
const tripledSchema = "bench_tripled/v1"

// defaultTripledGates: replication at R=2 writes every PUT twice and
// pays a quorum wait, so ~2-3x PUT overhead vs the single node is the
// honest in-process cost; 6x leaves timer-noise headroom while still
// catching a pathological cluster client. The failover floor is 1:
// the blackholed run must have actually served reads from a
// non-primary replica, or it measured nothing. The WAL cap is 1.5x:
// interval sync means durability costs one buffered write() per
// request off the ack path, so anything past ~1.5x signals the log
// has crept back onto the hot path (per-record fsync, allocation in
// the framer, serialization under the stripe lock).
func defaultTripledGates() Gates {
	return Gates{
		ReplicationOverheadMax: 6,
		FailoversMin:           1,
		WALOverheadMax:         1.5,
	}
}

// measureTripled runs the loadgen workload four ways — one in-memory
// node, one durable (WAL-on, interval sync) node, a 3-node R=2
// cluster, and the same cluster with one replica blackholed at the
// halfway barrier — and reports throughput plus latency percentiles
// for each, the single-vs-cluster PUT overhead, the WAL ingest
// overhead, and the failover count from the degraded phase. Any
// workload error is fatal: with R=2 and one injected fault the
// cluster is obligated to finish.
func measureTripled(quick bool) *Report {
	lcfg := loadgen.Config{
		Clients: 8,
		Ops:     8000,
		Batch:   128,
		Rows:    100000,
		Mix:     [3]int{70, 25, 5},
		TopK:    10,
		Seed:    1,
	}
	if quick {
		lcfg.Clients = 4
		lcfg.Ops = 1500
		lcfg.Batch = 64
		lcfg.Rows = 20000
	}
	rep := &Report{
		Schema:     tripledSchema,
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Quick:      quick,
		Metrics:    map[string]Metric{},
		Gates:      defaultTripledGates(),
	}

	servers := func(n int) []string {
		addrs := make([]string, n)
		for i := range addrs {
			srv, err := tripled.Serve(tripled.NewStore(), "127.0.0.1:0")
			if err != nil {
				log.Fatal(err)
			}
			// Servers live until process exit; each phase gets fresh ones so
			// TOPDEG cost does not compound across phases.
			addrs[i] = srv.Addr()
		}
		return addrs
	}
	record := func(phase string, st *loadgen.Stats) {
		for _, kind := range loadgen.OpKinds {
			if len(st.Lat[kind]) == 0 {
				continue
			}
			rep.Metrics[fmt.Sprintf("tripled_%s_%s", phase, strings.ToLower(kind))] = Metric{
				ItemsPerSec: st.PerSec(kind),
				P50Ns:       float64(st.Percentile(kind, 0.50).Nanoseconds()),
				P95Ns:       float64(st.Percentile(kind, 0.95).Nanoseconds()),
				P99Ns:       float64(st.Percentile(kind, 0.99).Nanoseconds()),
			}
		}
	}

	// Phase 1: single node.
	single := lcfg
	addr := servers(1)[0]
	single.Dial = func(int) (tripled.Conn, error) { return tripled.Dial(addr) }
	st, err := loadgen.Run(single)
	if err != nil {
		log.Fatalf("benchreport: single-node load phase: %v", err)
	}
	record("single", st)

	// Phase 1b: single durable node — same workload against a WAL-backed
	// server at the interval sync policy (the production default: the
	// write() lands before the ack, fsync rides the ticker). The server
	// is closed and its log deleted after the phase; only the overhead
	// ratio vs phase 1 is kept.
	walDir, err := os.MkdirTemp("", "benchreport-wal-")
	if err != nil {
		log.Fatal(err)
	}
	walSrv, err := tripled.Serve(tripled.NewStore(), "127.0.0.1:0",
		tripled.WithDataDir(walDir), tripled.WithWALSyncPolicy("interval"))
	if err != nil {
		log.Fatalf("benchreport: durable node: %v", err)
	}
	walOn := lcfg
	walAddr := walSrv.Addr()
	walOn.Dial = func(int) (tripled.Conn, error) { return tripled.Dial(walAddr) }
	stw, err := loadgen.Run(walOn)
	if err != nil {
		log.Fatalf("benchreport: WAL-on load phase: %v", err)
	}
	record("walon", stw)
	if w := stw.PerSec("PUT"); w > 0 {
		rep.WALOverhead = st.PerSec("PUT") / w
	}
	walSrv.Close()
	os.RemoveAll(walDir)

	// Phase 2: clean 3-node R=2 cluster.
	clean := lcfg
	spec := strings.Join(servers(3), ",") + ";replicas=2"
	clean.Dial = func(int) (tripled.Conn, error) { return cluster.Dial(spec) }
	st2, err := loadgen.Run(clean)
	if err != nil {
		log.Fatalf("benchreport: 3-node load phase: %v", err)
	}
	record("cluster3", st2)
	if c3 := st2.PerSec("PUT"); c3 > 0 {
		rep.ReplicationOverhead = st.PerSec("PUT") / c3
	}

	// Phase 3: 3-node cluster with node 1 blackholed at the halfway
	// barrier — the tail of the run measures detection plus failover.
	degraded := lcfg
	var proxies []*faultinject.Proxy
	var paddrs []string
	for _, a := range servers(3) {
		p, err := faultinject.New(a)
		if err != nil {
			log.Fatal(err)
		}
		proxies = append(proxies, p)
		paddrs = append(paddrs, p.Addr())
	}
	dspec := strings.Join(paddrs, ",") + ";replicas=2;io_timeout=500ms;retries=2"
	var mu sync.Mutex
	var cclients []*cluster.Client
	degraded.Dial = func(int) (tripled.Conn, error) {
		c, err := cluster.Dial(dspec)
		if err == nil {
			mu.Lock()
			cclients = append(cclients, c)
			mu.Unlock()
		}
		return c, err
	}
	degraded.Mid = func() { proxies[1].SetMode(faultinject.Blackhole) }
	st3, err := loadgen.Run(degraded)
	if err != nil {
		log.Fatalf("benchreport: blackholed-failover load phase: %v", err)
	}
	record("failover", st3)
	for _, c := range cclients {
		rep.Failovers += c.Health().Failovers
	}
	return rep
}

// studyConfig is the measurement scale for -study: the root benchmark
// harness's study shape at full scale, QuickConfig at -quick.
func studyConfig(quick bool) core.Config {
	if quick {
		cfg := core.QuickConfig()
		// Eight snapshots instead of the paper's five, for the same
		// reason core's TestStudySpeedup measures an 8-snapshot fixture:
		// snapshot captures dominate the wall clock, and 5 jobs on 4
		// workers cap the ideal speedup at ~2.5x — too close to the 2x
		// bar for a shared CI runner. At 8 jobs the ideal is ~4x, so the
		// quick-scale study gate can be enforced from 4 CPUs (see
		// defaultStudyGates). The full-scale report below keeps the
		// realistic paper study as the trajectory record.
		cfg.SnapshotTimes = nil
		for m := 2; m < 10; m++ {
			cfg.SnapshotTimes = append(cfg.SnapshotTimes, cfg.StudyStart.AddDate(0, m, 14))
		}
		return cfg
	}
	cfg := core.DefaultConfig()
	cfg.NV = 1 << 16
	cfg.LeafSize = 1 << 12
	cfg.Radiation.NumSources = 40000
	cfg.Radiation.ZM = stats.PaperZM(1 << 14)
	cfg.Radiation.BrightLog2 = 8
	return cfg
}

// measureStudy times the whole study on the serial oracle and the
// parallel scheduler, then benchmarks the frozen correlation kernels on
// the resulting tables.
func measureStudy(quick bool) *Report {
	rep := &Report{
		Schema:     studySchema,
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Quick:      quick,
		Metrics:    map[string]Metric{},
		Gates:      defaultStudyGates(quick),
	}
	cfg := studyConfig(quick)

	run := func(workers int) (*core.Result, time.Duration) {
		c := cfg
		c.Workers = workers
		p, err := core.New(c)
		if err != nil {
			log.Fatal(err)
		}
		t0 := time.Now()
		res, err := p.Run()
		if err != nil {
			log.Fatal(err)
		}
		return res, time.Since(t0)
	}
	_, serialWall := run(1)
	// The acceptance bar is phrased at >= 4 workers; use more when the
	// machine has them. On fewer CPUs this still exercises the real
	// scheduler (interleaved), so the recorded speedup is the honest
	// fan-out-overhead number, not a silent serial rerun.
	parWorkers := runtime.GOMAXPROCS(0)
	if parWorkers < 4 {
		parWorkers = 4
	}
	res, parWall := run(parWorkers)
	pkts := len(res.Windows) * cfg.NV
	rep.Metrics["study_serial"] = Metric{
		NsOp:        float64(serialWall.Nanoseconds()),
		ItemsPerSec: float64(pkts) / serialWall.Seconds(),
	}
	rep.Metrics["study_parallel"] = Metric{
		NsOp:        float64(parWall.Nanoseconds()),
		ItemsPerSec: float64(pkts) / parWall.Seconds(),
	}
	rep.StudySpeedup = float64(serialWall) / float64(parWall)

	// fit_wall: the report graph's Fig 7/8 GridSearch2 sweeps — the
	// dominant post-capture cost — on the serial oracle vs the
	// pool-scheduled per-(snapshot, band) fan-out. The frozen study is
	// prebuilt so the phase isolates pure fit compute, and the
	// parallel render is checked byte-identical to the serial oracle
	// on every run (the parity half of the fit gate, not CPU-floored).
	frozen := res.Frozen()
	fitJobs := 0
	for si := 0; si < frozen.Snapshots(); si++ {
		fitJobs += len(frozen.SweepBands(si, cfg.MinBandSources))
	}
	renderFits := func(workers int) string {
		var b strings.Builder
		if err := report.WriteTSV(&b, res.ReportWith(workers), report.Fig7Fig8); err != nil {
			log.Fatal(err)
		}
		return b.String()
	}
	fitSerial := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res.ReportWith(1).Fig7And8()
		}
	})
	fitPar := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res.ReportWith(parWorkers).Fig7And8()
		}
	})
	rep.Metrics["fit_wall_serial"] = toMetric(fitSerial, fitJobs)
	rep.Metrics["fit_wall_parallel"] = toMetric(fitPar, fitJobs)
	if fitPar.NsPerOp() > 0 {
		rep.FitSpeedup = float64(fitSerial.NsPerOp()) / float64(fitPar.NsPerOp())
	}
	if serial, par := renderFits(1), renderFits(parWorkers); serial != par {
		log.Fatalf("benchreport: fig7_fig8 render at %d workers diverges from one worker", parWorkers)
	}

	// One-time interning cost of the study's tables: the serial
	// insertion-order interner (the oracle) vs the pooled rank interner
	// the pipeline runs. Items are the row keys interned per build, so
	// both carry a throughput floor for the regression check.
	freezeKeys := 0
	for _, m := range res.Study.Months {
		freezeKeys += len(m.Table.RowKeys())
	}
	for _, s := range res.Study.Snapshots {
		freezeKeys += len(s.Sources.RowKeys())
	}
	rep.Metrics["correlate_freeze"] = toMetric(testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			correlate.Freeze(res.Study, 1)
		}
	}), freezeKeys)
	rep.Metrics["correlate_freeze_parallel"] = toMetric(testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			correlate.Freeze(res.Study, 0)
		}
	}), freezeKeys)

	// Steady-state Figure 4 and Figure 5-8 kernels: warm Into
	// destinations, so allocs/op must read 0.
	f := res.Frozen()
	mi, err := f.SameMonthIndex(0)
	if err != nil {
		log.Fatal(err)
	}
	dst := f.PeakCorrelation(0, mi)
	rep.Metrics["correlate_peak"] = toMetric(testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dst = f.PeakInto(dst, 0, mi)
		}
	}), 0)
	band := f.Bands(0)[0] // the faintest band holds the most sources: worst case
	var series correlate.Series
	if err := f.TemporalInto(&series, 0, band); err != nil {
		log.Fatal(err)
	}
	rep.Metrics["correlate_temporal"] = toMetric(testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := f.TemporalInto(&series, 0, band); err != nil {
				b.Fatal(err)
			}
		}
	}), 0)
	return rep
}
