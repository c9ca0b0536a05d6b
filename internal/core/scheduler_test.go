package core

// scheduler_test.go proves the worker count is a pure performance
// knob: at any Workers — one worker of the same code included — every
// emitted artifact (Table I, Table II, Figures 3 through 8) is
// byte-identical, in memory and through the tripled store, and equal
// to the committed goldens, which no code under test produced in this
// run. Run under -race this is also the scheduler's concurrency
// soundness proof. TestStudySpeedup is the wall-clock gate, skipped
// with an annotation on runners without enough CPUs to measure it.

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/ipaddr"
	"repro/internal/report"
	"repro/internal/testkit"
	"repro/internal/tripled"
)

// schedulerConfig is a seconds-scale study with enough months, bands,
// and windows to light up every artifact.
func schedulerConfig() Config {
	cfg := QuickConfig()
	cfg.Radiation.NumSources = 3000
	cfg.NV = 1 << 12
	cfg.LeafSize = 1 << 8
	return cfg
}

// renderArtifact serializes one artifact through report, as the
// commands write it: its TSV, then its JSON.
func renderArtifact(t *testing.T, r *Result, id report.ArtifactID) (tsv, js string) {
	t.Helper()
	var tb, jb strings.Builder
	if err := report.WriteTSV(&tb, r.Report(), id); err != nil {
		t.Fatalf("render %s tsv: %v", id, err)
	}
	if err := report.WriteJSON(&jb, r.Report(), id); err != nil {
		t.Fatalf("render %s json: %v", id, err)
	}
	return tb.String(), jb.String()
}

// checkGoldens holds a QuickConfig result to the report package's
// committed TSV goldens: the referent of the worker sweeps that is
// independent of every worker count.
func checkGoldens(t *testing.T, name string, r *Result) {
	t.Helper()
	for _, id := range report.All() {
		path := filepath.Join("..", "report", "testdata", report.Filename(id, "tsv"))
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if tsv, _ := renderArtifact(t, r, id); tsv != string(want) {
			t.Errorf("%s: %s drifted from golden %s at %s", name, id, path, testkit.DiffLines(tsv, string(want)))
		}
	}
}

// renderAll serializes every artifact the pipeline emits, in both
// encodings, and the window state the artifacts do not embed, so two
// runs can be compared byte for byte.
func renderAll(t *testing.T, r *Result) string {
	t.Helper()
	var b strings.Builder
	for _, id := range report.All() {
		tsv, js := renderArtifact(t, r, id)
		fmt.Fprintf(&b, "== %s ==\n%s%s", id, tsv, js)
	}
	for i, w := range r.Windows {
		fmt.Fprintf(&b, "Window %d: NV=%d Dropped=%d NNZ=%d NRows=%d span=%v\n",
			i, w.NV, w.Dropped, w.Matrix.NNZ(), w.Matrix.NRows(), w.Duration())
	}
	return b.String()
}

// sameRender fails with the first line where got leaves want.
func sameRender(t *testing.T, name, got, want string) {
	t.Helper()
	if d := testkit.DiffLines(got, want); d != "" {
		t.Fatalf("%s: artifacts diverge at %s", name, d)
	}
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

// TestParallelStudyMatchesSerialOracle: one worker and four workers of
// the same code reproduce each other exactly across every Table and
// Figure emitter, windows included, at a scale small enough to run
// under -race on every push.
func TestParallelStudyMatchesSerialOracle(t *testing.T) {
	cfg := schedulerConfig()
	cfg.Workers = 1
	one := renderAll(t, runStudy(t, cfg))
	cfg.Workers = 4
	four := renderAll(t, runStudy(t, cfg))
	sameRender(t, "in-memory", four, one)
}

// sweepGoldenStudy runs the golden QuickConfig study at 1, 2, 3, and 8
// workers (the caller alone, a 2-worker minimum, an odd count, more
// workers than snapshot jobs and engine shards than cores), in memory
// or with every table round-tripping through a fresh tripled store, and
// holds each run to the committed goldens and, beyond what the goldens
// hold, to the first run's windows.
func sweepGoldenStudy(t *testing.T, storeBacked bool) {
	t.Helper()
	var first string
	for _, workers := range []int{1, 2, 3, 8} {
		cfg := QuickConfig()
		cfg.Workers = workers
		name := fmt.Sprintf("workers=%d", workers)
		var srv *tripled.Server
		if storeBacked {
			var err error
			if srv, err = tripled.Serve(tripled.NewStore(), "127.0.0.1:0"); err != nil {
				t.Fatal(err)
			}
			cfg.StoreAddr = srv.Addr()
			name = "store-backed " + name
		}
		r := runStudy(t, cfg)
		if srv != nil {
			srv.Close()
		}
		checkGoldens(t, name, r)
		if got := renderAll(t, r); first == "" {
			first = got
		} else {
			sameRender(t, name, got, first)
		}
	}
}

// TestParallelStoreBackedStudyMatchesSerial: however many per-worker
// clients publish and fetch, a store-backed study's artifacts equal the
// goldens an in-memory study produced.
func TestParallelStoreBackedStudyMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("four store-backed studies")
	}
	sweepGoldenStudy(t, true)
}

// TestParallelStudyWorkerSweep pins worker-count invariance of the
// whole spine — engine shards, scheduler, freeze, fits — on the golden
// study, against the committed goldens.
func TestParallelStudyWorkerSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("several full studies")
	}
	sweepGoldenStudy(t, false)
}

// TestParallelStudySharesAnonCache pins the scheduler's shared
// CryptoPAN memo and what it holds: every per-worker Telescope rides
// the pipeline's one Cached, so after a run at any fan-out the pipeline
// memo holds exactly the study's distinct sources — not a cold table
// beside N private per-worker memos, and not one entry per darkspace
// destination the study ever saw.
func TestParallelStudySharesAnonCache(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		cfg := schedulerConfig()
		cfg.Radiation.NumSources = 2000
		cfg.NV = 1 << 11
		cfg.Workers = workers
		p, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Run()
		if err != nil {
			t.Fatal(err)
		}
		sources := make(map[ipaddr.Addr]bool)
		for _, snap := range res.Study.Snapshots {
			for _, a := range snap.Addrs() {
				sources[a] = true
			}
		}
		if len(sources) == 0 {
			t.Fatal("study saw no sources")
		}
		if got := p.tel.Anonymizer().Len(); got != len(sources) {
			t.Errorf("Workers=%d: pipeline memo holds %d addresses, the study has %d distinct sources",
				workers, got, len(sources))
		}
	}
}

// TestStudySpeedup is the acceptance gate: at Workers=4 the whole
// study must finish at least 2x faster than at Workers=1, with
// byte-identical artifacts. The four workers run on GOMAXPROCS Ps, so
// the floor is on whichever of NumCPU and GOMAXPROCS is smaller
// (`go test -cpu 1,2` and a GOMAXPROCS=2 environment lower only the
// second); below 4 the fan-out just interleaves and the gate skips.
func TestStudySpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("two timed full studies")
	}
	if testkit.RaceEnabled {
		t.Skip("race detector perturbs timing")
	}
	if cpus, procs := runtime.NumCPU(), runtime.GOMAXPROCS(0); min(cpus, procs) < 4 {
		t.Skipf("whole-study speedup needs >= 4 CPUs to measure; this run has "+
			"NumCPU=%d, GOMAXPROCS=%d — correctness is still proven by "+
			"TestParallelStudyMatchesSerialOracle", cpus, procs)
	}
	cfg := QuickConfig()
	cfg.SnapshotTimes = testkit.EightSnapshots(cfg.StudyStart)

	cfg.Workers = 1
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

	cfg.Workers = 4
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

	sameRender(t, "speedup-parity", renderAll(t, parRes), renderAll(t, serialRes))
	speedup := float64(serialWall) / float64(parWall)
	t.Logf("whole study: 1 worker %v, 4 workers %v, speedup %.2fx", serialWall, parWall, speedup)
	if speedup < 2 {
		t.Errorf("whole-study speedup %.2fx < 2x gate (1 worker %v, 4 workers %v)", speedup, serialWall, parWall)
	}
}
