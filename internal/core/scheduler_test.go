package core

// scheduler_test.go proves the study-level scheduler is a pure
// performance transform: for any StudyWorkers, every emitted artifact —
// Table I, Table II, Figures 3 through 8 — is byte-identical to the
// StudyWorkers=1 serial oracle, in memory and through the tripled
// store. Run under -race this is also the scheduler's concurrency
// soundness proof. TestStudySpeedup is the wall-clock gate, skipped
// with an annotation on runners without enough CPUs to measure it.

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/tripled"
)

// schedulerConfig is a seconds-scale study with enough months, bands,
// and windows to light up every artifact.
func schedulerConfig() Config {
	cfg := QuickConfig()
	cfg.Radiation.NumSources = 3000
	cfg.NV = 1 << 12
	cfg.LeafSize = 1 << 8
	cfg.Workers = 2 // engine-level sharding composes with study-level fan-out
	return cfg
}

// renderAll serializes every artifact the pipeline emits, so two runs
// can be compared byte for byte.
func renderAll(t *testing.T, r *Result) string {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "TableI: %+v\n", r.TableI())
	fmt.Fprintf(&b, "TableII: %+v\n", r.TableII())
	for _, s := range r.Fig3() {
		fmt.Fprintf(&b, "Fig3 %s: %+v alpha=%v delta=%v res=%v\n", s.Label, s.Binned, s.Alpha, s.Delta, s.Residual)
	}
	fig4, err := r.Fig4()
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "Fig4: %+v\n", fig4)
	series, fits, err := r.Fig5()
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "Fig5: %+v\n", series)
	for _, name := range []string{"modified-cauchy", "cauchy", "gaussian"} {
		fmt.Fprintf(&b, "Fig5 fit %s: %+v\n", name, fits[name])
	}
	all, f6fits := r.Fig6()
	fmt.Fprintf(&b, "Fig6: %+v\nFig6 fits: %+v\n", all, f6fits)
	fmt.Fprintf(&b, "Fig7And8: %+v\n", r.Fig7And8())
	// Windows and farm state, beyond what the tables above embed.
	for i, w := range r.Windows {
		fmt.Fprintf(&b, "Window %d: NV=%d Dropped=%d NNZ=%d NRows=%d span=%v\n",
			i, w.NV, w.Dropped, w.Matrix.NNZ(), w.Matrix.NRows(), w.Duration())
	}
	for _, m := range r.Farm.Months() {
		fmt.Fprintf(&b, "Farm month %s: rows=%d nnz=%d\n", m.Label, m.Table.NRows(), m.Table.NNZ())
	}
	return b.String()
}

func runStudy(t *testing.T, cfg Config) *Result {
	t.Helper()
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// diffRender fails with the first differing line instead of dumping two
// multi-kilobyte artifacts blobs.
func diffRender(t *testing.T, name, serial, parallel string) {
	t.Helper()
	if serial == parallel {
		return
	}
	sl, pl := strings.Split(serial, "\n"), strings.Split(parallel, "\n")
	for i := range sl {
		if i >= len(pl) || sl[i] != pl[i] {
			pline := "<missing>"
			if i < len(pl) {
				pline = pl[i]
			}
			t.Fatalf("%s: artifacts diverge at line %d:\nserial:   %s\nparallel: %s", name, i+1, sl[i], pline)
		}
	}
	t.Fatalf("%s: parallel render has %d extra lines", name, len(pl)-len(sl))
}

// TestParallelStudyMatchesSerialOracle is satellite coverage for the
// scheduler's contract: StudyWorkers=4 reproduces the StudyWorkers=1
// oracle exactly, across every Table and Figure emitter.
func TestParallelStudyMatchesSerialOracle(t *testing.T) {
	cfg := schedulerConfig()
	cfg.StudyWorkers = 1
	serial := renderAll(t, runStudy(t, cfg))
	cfg.StudyWorkers = 4
	parallel := renderAll(t, runStudy(t, cfg))
	diffRender(t, "in-memory", serial, parallel)
}

// TestParallelStoreBackedStudyMatchesSerial runs the same oracle diff
// with every table round-tripping through a tripled store: the
// scheduler's per-worker clients must publish and fetch exactly what
// the serial path's single client does.
func TestParallelStoreBackedStudyMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("two store-backed studies")
	}
	run := func(studyWorkers int) string {
		srv, err := tripled.Serve(tripled.NewStore(), "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		cfg := schedulerConfig()
		cfg.StudyWorkers = studyWorkers
		cfg.StoreAddr = srv.Addr()
		return renderAll(t, runStudy(t, cfg))
	}
	diffRender(t, "store-backed", run(1), run(4))
}

// TestParallelStudyWorkerSweep pins worker-count invariance beyond the
// single 1-vs-4 pair: 2, 3, and 8 workers (more workers than jobs in
// the snapshot phase, odd counts, and a 2-worker minimum) all match.
func TestParallelStudyWorkerSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("several full studies")
	}
	cfg := schedulerConfig()
	cfg.Radiation.NumSources = 2000
	cfg.NV = 1 << 11
	cfg.StudyWorkers = 1
	want := renderAll(t, runStudy(t, cfg))
	for _, workers := range []int{2, 3, 8} {
		cfg.StudyWorkers = workers
		diffRender(t, fmt.Sprintf("workers=%d", workers), want, renderAll(t, runStudy(t, cfg)))
	}
}

// TestParallelStudySharesAnonCache pins the scheduler's shared
// CryptoPAN memo and what it holds: every per-worker Telescope rides
// the pipeline's one Cached, so after a run at any fan-out the pipeline
// memo holds exactly the study's distinct sources — not a cold table
// beside N private per-worker memos, and not one entry per darkspace
// destination the study ever saw.
func TestParallelStudySharesAnonCache(t *testing.T) {
	for _, studyWorkers := range []int{1, 2, 8} {
		cfg := schedulerConfig()
		cfg.Radiation.NumSources = 2000
		cfg.NV = 1 << 11
		cfg.StudyWorkers = studyWorkers
		p, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Run()
		if err != nil {
			t.Fatal(err)
		}
		sources := make(map[string]bool)
		for _, snap := range res.Study.Snapshots {
			for _, row := range snap.Sources.RowKeys() {
				sources[row] = true
			}
		}
		if len(sources) == 0 {
			t.Fatal("study saw no sources")
		}
		if got := p.tel.Anonymizer().Len(); got != len(sources) {
			t.Errorf("StudyWorkers=%d: pipeline memo holds %d addresses, the study has %d distinct sources",
				studyWorkers, got, len(sources))
		}
	}
}

// TestStudySpeedup is the acceptance gate: at >= 4 study workers the
// parallel scheduler must finish the whole study at least 2x faster
// than the serial oracle, with byte-identical artifacts. On runners
// without at least 4 CPUs the wall-clock assertion is meaningless (the
// fan-out just interleaves on one core), so the gate self-skips with an
// annotation — the same policy the hot-path benchmark report applies
// to its multi-worker speedup metrics.
func TestStudySpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("two timed full studies")
	}
	if raceEnabled {
		t.Skip("race detector perturbs timing")
	}
	if cpus := runtime.NumCPU(); cpus < 4 {
		t.Skipf("whole-study speedup needs >= 4 CPUs to measure; this runner has %d "+
			"(GOMAXPROCS=%d) — wall-clock parallel assertions are annotated and skipped, "+
			"correctness is still proven by TestParallelStudyMatchesSerialOracle",
			cpus, runtime.GOMAXPROCS(0))
	}
	cfg := QuickConfig()
	cfg.Workers = 1 // isolate study-level fan-out from engine-level sharding
	// Eight snapshots instead of the paper's five: snapshot captures
	// dominate the wall clock, and 5 jobs on 4 workers cap the ideal
	// speedup at ~2.5x — too close to the 2x bar for a shared CI
	// runner. At 8 jobs the critical path is 2 of 8 snapshot
	// durations (ideal ~4x), so passing 2x needs only ~50% parallel
	// efficiency.
	cfg.SnapshotTimes = nil
	for m := 2; m < 10; m++ {
		cfg.SnapshotTimes = append(cfg.SnapshotTimes, cfg.StudyStart.AddDate(0, m, 14))
	}

	cfg.StudyWorkers = 1
	p1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	startSerial := time.Now()
	serialRes, err := p1.Run()
	if err != nil {
		t.Fatal(err)
	}
	serialWall := time.Since(startSerial)

	cfg.StudyWorkers = 4
	p4, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	startPar := time.Now()
	parRes, err := p4.Run()
	if err != nil {
		t.Fatal(err)
	}
	parWall := time.Since(startPar)

	diffRender(t, "speedup-parity", renderAll(t, serialRes), renderAll(t, parRes))
	speedup := float64(serialWall) / float64(parWall)
	t.Logf("whole study: serial %v, parallel(4) %v, speedup %.2fx", serialWall, parWall, speedup)
	if speedup < 2 {
		t.Errorf("whole-study speedup %.2fx < 2x gate (serial %v, parallel %v)", speedup, serialWall, parWall)
	}
}
