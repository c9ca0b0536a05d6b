package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// measured is one reported number with the count of samples behind it.
type measured struct {
	Value float64
	N     int
}

// run is one workload invocation: the settings, the scratch directory,
// the tracer (nil with tracing off) and everything recorded so far.
type run struct {
	options
	workload string
	dir      string
	tr       *tracer

	clients   int       // load-generating goroutines the workload runs at once
	warming   bool      // the warm-up repetition is running: record no timings
	setup     []float64 // seconds, one per set-up
	host      []float64 // seconds, the reference kernel's samples (hostprobe.go)
	attempted int
	failed    int
	failures  []string
	values    map[string]measured  // metric name → value, end-to-end and per-layer alike
	reps      map[string][]float64 // per-repetition samples behind wall_s and friends, for the report
}

// set records a metric. Names are checked against the declared lists
// in finish, so a typo fails the run instead of vanishing.
func (r *run) set(name string, v float64, n int) { r.values[name] = measured{Value: v, N: n} }

// setMedian records a metric as the median of its per-repetition
// values and keeps them all for the detailed report.
func (r *run) setMedian(name string, scale float64, xs []float64) {
	r.set(name, scale*median(xs), len(xs))
	if r.reps == nil {
		r.reps = make(map[string][]float64)
	}
	r.reps[name] = xs
}

// timeSetup runs one set-up and records its wall as a setup_s sample,
// unless the repetition is the warm-up.
func (r *run) timeSetup(fn func() error) error {
	t0 := time.Now()
	err := fn()
	if !r.warming {
		r.setup = append(r.setup, since(t0))
	}
	return err
}

// ops counts attempted operations; failIf counts one failed operation
// per non-nil error and keeps its text for the report.
func (r *run) ops(n int) { r.attempted += n }

func (r *run) failIf(err error) {
	if err != nil {
		r.failed++
		r.failures = append(r.failures, err.Error())
	}
}

// budget says how long the timed repetitions of this invocation run:
// all of --seconds with tracing off, half of it when the traced pass
// and the layer probes have to fit into the same run.
func (r *run) budget() float64 {
	if r.trace {
		return r.seconds / 2
	}
	return r.seconds
}

// repeat runs rep until the next repetition would no longer fit into
// the budget, going by the longest one so far, and at least
// scale.minReps times. At full scale a warm-up repetition goes first,
// inside the budget: it runs and is checked like the others, with
// r.warming set so that its timings are not recorded. The host
// reference is sampled before, between and after the repetitions.
func (r *run) repeat(rep func(i int) error) error {
	start := time.Now()
	r.sampleHost()
	if r.scale.warmup {
		r.warming = true
		err := rep(-1)
		r.warming = false
		if err != nil {
			return err
		}
	}
	longest := since(start)
	for n := 0; r.scale.maxReps == 0 || n < r.scale.maxReps; n++ {
		if n >= r.scale.minReps && since(start)+longest > r.budget() {
			break
		}
		r.sampleHost()
		t0 := time.Now()
		if err := rep(n); err != nil {
			return err
		}
		longest = max(longest, since(t0))
	}
	r.sampleHost()
	return nil
}

// procMetrics records the process-wide resource metrics: peak resident
// set, bytes allocated and GC pause since the workload started.
func (r *run) procMetrics(before *runtime.MemStats) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	r.set("proc.alloc_mb", float64(after.TotalAlloc-before.TotalAlloc)/(1<<20), 1)
	r.set("proc.gc_pause_ms", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6, int(after.NumGC-before.NumGC))
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		r.set("proc.peak_rss_mb", float64(ru.Maxrss)/1024, 1) // Linux reports KiB
	}
}

// finish closes the books: the set-up time, the host slowdown, and a
// check that the workload produced exactly the declared metrics of its
// pass — every end-to-end metric with tracing off, and with tracing on
// a value for every layer metric its layers have (the rest read 0:
// bypassed).
func (r *run) finish() error {
	if len(r.setup) == 0 || len(r.host) == 0 {
		return fmt.Errorf("%s recorded %d set-ups and %d host reference samples", r.workload, len(r.setup), len(r.host))
	}
	r.setMedian("setup_s", 1, r.setup)
	r.set("host.slowdown_x", r.slowdown(), len(r.host))
	declared := make(map[string]bool)
	for _, d := range endToEnd {
		declared[d.Name] = true
		if _, ok := r.values[d.Name]; !ok {
			return fmt.Errorf("%s did not measure end-to-end metric %s", r.workload, d.Name)
		}
	}
	for _, d := range perLayer {
		declared[d.Name] = true
	}
	for name, v := range r.values {
		if !declared[name] {
			return fmt.Errorf("%s measured undeclared metric %s", r.workload, name)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("%s: metric %s is %v", r.workload, name, v.Value)
		}
	}
	if r.attempted < 1 {
		return fmt.Errorf("%s attempted no operations", r.workload)
	}
	return nil
}

func (r *run) correct() bool { return r.failed == 0 }

// gated is an end-to-end metric as the driver gets it: the measured
// median divided by the run's host slowdown (hostprobe.go).
func (r *run) gated(name string) float64 { return r.values[name].Value / r.slowdown() }

// driverLine is the last line of output: every end-to-end metric with
// tracing off, every per-layer metric with tracing on.
func (r *run) driverLine() map[string]any {
	defs := endToEnd
	if r.trace {
		defs = perLayer
	}
	metrics := make(map[string]any, len(defs))
	for _, d := range defs {
		v := r.values[d.Name].Value
		if !r.trace {
			v = r.gated(d.Name)
		}
		metrics[d.Name] = map[string]any{"value": v, "unit": d.Unit}
	}
	return map[string]any{
		"correct":   r.correct(),
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   metrics,
	}
}

// detail is the human-facing report: every metric this run measured,
// with unit, direction and sample count, and where it ran.
func (r *run) detail() map[string]any {
	metrics := make(map[string]any)
	add := func(defs []metricDef) {
		for _, d := range defs {
			v, ok := r.values[d.Name]
			if !ok {
				continue
			}
			m := map[string]any{"value": v.Value, "unit": d.Unit, "better": d.Better, "samples": v.N}
			if d.Bound > 0 { // end-to-end: the gated value beside the measured one
				m["value"], m["measured"], m["bound"] = r.gated(d.Name), v.Value, d.Bound
			}
			metrics[d.Name] = m
		}
	}
	add(endToEnd)
	add(perLayer)
	return map[string]any{
		"workload":   r.workload,
		"scale":      r.scale.name,
		"seed":       r.seed,
		"trace":      r.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": r.gomaxprocs,
		"clients":    r.clients,
		"go":         runtime.Version(),
		"ops":        r.attempted,
		"failed":     r.failed,
		"failures":   r.failures,
		"reps":       r.reps,
		"host_ref_s": r.host,
		"metrics":    metrics,
	}
}

// medianAt returns, for every position of the equally long rows, the
// median of the values the rows have there.
func medianAt(rows [][]float64) []float64 {
	out := make([]float64, len(rows[0]))
	col := make([]float64, len(rows))
	for i := range out {
		for j, row := range rows {
			col[j] = row[i]
		}
		out[i] = median(col)
	}
	return out
}

// median returns the median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// percentile returns the p-quantile (0..1) of xs by linear
// interpolation between order statistics; xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// withProcs runs fn under GOMAXPROCS(n) and restores the setting: the
// only way this benchmark obtains a single-threaded baseline.
func withProcs(n int, fn func() error) error {
	prev := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(prev)
	return fn()
}
