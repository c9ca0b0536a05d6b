// Command benchmark is the repository's one benchmark: five workloads
// over the whole pipeline (batch study, pcap replay, resident-daemon
// ingest under pollers, store-backed study, durable replicated KV),
// a handful of gated end-to-end metrics, and a traced pass that
// decomposes each workload into per-layer numbers by timing calls into
// each module's public functions from this package's own code. See
// README.md beside this file and BENCHMARK.json at the repository root.
//
// Usage:
//
//	go run ./benchmark --workload NAME --seed N --seconds S --trace 0|1
//	go run ./benchmark                      # all five, in sequence
//	go run ./benchmark -selfcheck           # every gated workload twice, compared to the bounds
//
// Each workload prints two JSON lines on stdout: a detailed report
// (every metric with unit, direction and sample count, the host's
// nproc/gomaxprocs/Go version and the seed) and, last, the driver's
// result object {"correct","attempted","failed","metrics"}. The exit
// code is non-zero when any correctness gate fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		workload  = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+" (empty = all, in sequence)")
		seed      = flag.Int64("seed", 1, "input seed: feeds radiation.Config.Seed and the op-script RNGs only")
		seconds   = flag.Float64("seconds", 38, "how long the repetitions run, the warm-up one included")
		trace     = flag.Int("trace", 0, "1 = run the traced pass and report the per-layer metrics instead of the end-to-end ones")
		scaleName = flag.String("scale", "full", "full, or smoke (tier-1 test only; never reported)")
		spans     = flag.String("spans", "", "with --trace 1: write the recorded spans and counts to this file as JSON")
		selfcheck = flag.Bool("selfcheck", false, "run every gated workload (or the one named) twice and fail if an end-to-end metric differs by more than its bound")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", flag.Arg(0))
		return 2
	}
	sc, err := scaleByName(*scaleName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	names := workloadNames()
	if *workload != "" {
		if _, ok := workloadByName(*workload); !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (want one of %s)\n", *workload, strings.Join(names, ", "))
			return 2
		}
		names = []string{*workload}
	}
	gomaxprocs := pinProcs()
	opts := options{seed: *seed, seconds: *seconds, trace: *trace != 0, scale: sc, gomaxprocs: gomaxprocs, spans: *spans}

	if *selfcheck {
		if *workload == "" { // the workloads that hold a bound
			names = names[:0]
			for _, w := range gatedWorkloads() {
				names = append(names, w.name)
			}
		}
		return runSelfcheck(names, opts)
	}
	code := 0
	for _, name := range names {
		o := opts
		if o.spans != "" && len(names) > 1 {
			ext := filepath.Ext(o.spans)
			o.spans = strings.TrimSuffix(o.spans, ext) + "." + name + ext
		}
		res, err := runWorkload(name, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
			return 1
		}
		if err := printResult(os.Stdout, res); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		if !res.correct() {
			for _, f := range res.failures {
				fmt.Fprintf(os.Stderr, "benchmark: %s: FAILED %s\n", name, f)
			}
			code = 1
		}
	}
	return code
}

// pinProcs fixes GOMAXPROCS at min(nproc, 4) so the same command means
// the same thing on a laptop and on a large runner, and returns it.
// Worker knobs inside the program stay at their zero value and follow
// this setting.
func pinProcs() int {
	n := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(n)
	return n
}

// options is one invocation's settings, shared by every workload.
type options struct {
	seed       int64
	seconds    float64
	trace      bool
	scale      scale
	gomaxprocs int
	spans      string
}

// runWorkload runs one workload in a scratch directory of its own
// inside the current directory (the checkout) and removes it after.
func runWorkload(name string, o options) (*run, error) {
	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(scratchRoot, name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	r := &run{options: o, workload: name, dir: dir, values: make(map[string]measured)}
	if o.trace {
		r.tr = newTracer()
	}
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	w, _ := workloadByName(name)
	if err := w.fn(r); err != nil {
		return nil, err
	}
	r.procMetrics(&before)
	if r.tr != nil {
		r.failIf(r.tr.checkChildren(0.10))
		if o.spans != "" {
			if err := r.tr.writeFile(o.spans); err != nil {
				return nil, err
			}
		}
	}
	return r, r.finish()
}

// scratchRoot is where workloads put pcap files and WAL directories:
// inside the checkout, ignored by git, the same directory the driver
// points other toolchains' build output at.
const scratchRoot = ".bench_build"

// printResult writes the detailed report line and then the driver's
// result line.
func printResult(w io.Writer, res *run) error {
	detail, err := json.Marshal(res.detail())
	if err != nil {
		return err
	}
	last, err := json.Marshal(res.driverLine())
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", detail, last)
	return err
}

// runSelfcheck is the repeatability check: every workload twice with
// tracing off, failing when any end-to-end metric of the second run is
// off the first by more than the metric's bound in either direction.
func runSelfcheck(names []string, o options) int {
	o.trace = false
	code := 0
	for _, name := range names {
		var pair [2]*run
		for i := range pair {
			res, err := runWorkload(name, o)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
				return 1
			}
			if !res.correct() {
				fmt.Fprintf(os.Stderr, "benchmark: %s: correctness gate failed: %s\n", name, strings.Join(res.failures, "; "))
				code = 1
			}
			pair[i] = res
		}
		for _, def := range endToEnd {
			a, b := pair[0].gated(def.Name), pair[1].gated(def.Name)
			diff := math.Abs(b-a) / a
			verdict := "ok"
			if diff > def.Bound {
				verdict = "UNSTEADY"
				code = 1
			}
			fmt.Printf("%-14s %-16s run1=%-12.6g run2=%-12.6g diff=%.3f bound=%.2f %s\n",
				name, def.Name, a, b, diff, def.Bound, verdict)
		}
	}
	return code
}

// since is time.Since in seconds.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
