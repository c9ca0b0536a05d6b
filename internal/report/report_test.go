package report_test

// report_test.go holds the graph's contracts: memoized single compute,
// worker-count invariance of the pool-scheduled freeze and fits
// against the committed goldens (exercised under -race in CI), and
// JSON/TSV value parity through the single Table lowering.
//
// Tests live in an external package and build their graphs through
// core.Result — the same construction every CLI uses — off one shared
// quick-config study (the golden fixture).

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/correlate"
	"repro/internal/report"
)

// quickResult runs the golden QuickConfig study once for the whole
// test package.
var (
	quickOnce sync.Once
	quickRes  *core.Result
	quickErr  error
)

func quickResult(t *testing.T) *core.Result {
	t.Helper()
	quickOnce.Do(func() {
		p, err := core.New(core.QuickConfig())
		if err != nil {
			quickErr = err
			return
		}
		quickRes, quickErr = p.Run()
	})
	if quickErr != nil {
		t.Fatal(quickErr)
	}
	return quickRes
}

// freshGraph is a new, unmemoized graph over res's study at another
// worker count — a fresh Result, the way any caller gets one.
func freshGraph(res *core.Result, workers int) *report.Graph {
	cfg := res.Config
	cfg.Workers = workers
	return (&core.Result{Config: cfg, Study: res.Study, Windows: res.Windows}).Report()
}

func renderTSV(t *testing.T, g *report.Graph, id report.ArtifactID) string {
	t.Helper()
	var b strings.Builder
	if err := report.WriteTSV(&b, g, id); err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return b.String()
}

// TestGraphMemoizes pins the ownership rule Result.Report relies on:
// one graph computes each artifact exactly once and hands every caller
// the same value.
func TestGraphMemoizes(t *testing.T) {
	res := quickResult(t)
	g := res.Report()
	a := g.Fig7And8()
	b := g.Fig7And8()
	if &a[0] != &b[0] {
		t.Error("Fig7And8 recomputed: calls returned distinct slices")
	}
	t1a, t1b := g.TableI(), g.TableI()
	if &t1a[0] != &t1b[0] {
		t.Error("TableI recomputed: calls returned distinct slices")
	}
	// Every Report call is the same memoized graph, and the freeze is its.
	if r := res.Report().Fig7And8(); &r[0] != &a[0] {
		t.Error("a second Report call built a second graph")
	}
	if res.Frozen() != g.Frozen() {
		t.Error("Result.Frozen is not the graph's freeze")
	}
}

// TestGraphConcurrentAccess hammers one graph from many goroutines;
// under -race this is the memoization's soundness proof.
func TestGraphConcurrentAccess(t *testing.T) {
	g := freshGraph(quickResult(t), 4)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, id := range report.All() {
				var b strings.Builder
				if err := report.WriteTSV(&b, g, id); err != nil {
					t.Errorf("%s: %v", id, err)
				}
			}
		}()
	}
	wg.Wait()
}

// TestReportWorkerSweep is the fit-determinism gate: a fresh graph at
// 1, 2, 3, and 8 workers — the caller alone, and more workers than
// jobs per snapshot — renders every artifact byte-identical to the
// committed goldens, which no worker count of this run produced. CI
// runs this under -race.
func TestReportWorkerSweep(t *testing.T) {
	res := quickResult(t)
	for _, workers := range []int{1, 2, 3, 8} {
		g := freshGraph(res, workers)
		for _, id := range report.All() {
			want, err := os.ReadFile(filepath.Join("testdata", report.Filename(id, "tsv")))
			if err != nil {
				t.Fatal(err)
			}
			if got := renderTSV(t, g, id); got != string(want) {
				t.Errorf("workers=%d: %s diverges from its golden:\ngot:\n%s\nwant:\n%s", workers, id, got, want)
			}
		}
	}
}

// TestFitSpeedup is the fit-phase wall-clock gate: the Fig 7/8 sweeps
// fanned out per (snapshot, band) on four workers finish >= 2x faster
// than on one. Fixture and CPU floor are core.TestStudySpeedup's: eight
// snapshots (~a dozen pure-CPU fits each), min(NumCPU, GOMAXPROCS) >= 4.
func TestFitSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("a timed study and a dozen timed fit sweeps")
	}
	if raceEnabled {
		t.Skip("race detector perturbs timing")
	}
	if cpus, procs := runtime.NumCPU(), runtime.GOMAXPROCS(0); min(cpus, procs) < 4 {
		t.Skipf("fit speedup needs >= 4 CPUs to measure; this run has NumCPU=%d, GOMAXPROCS=%d", cpus, procs)
	}
	cfg := core.QuickConfig()
	cfg.SnapshotTimes = nil
	for m := 2; m < 10; m++ {
		cfg.SnapshotTimes = append(cfg.SnapshotTimes, cfg.StudyStart.AddDate(0, m, 14))
	}
	p, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	timed := func(workers int) time.Duration {
		g := freshGraph(res, workers)
		g.Frozen() // built outside the timed region: the phase is pure fit compute
		start := time.Now()
		g.Fig7And8()
		return time.Since(start)
	}
	// Best of six each, interleaved, so a host that changes speed
	// mid-test lands on both sides of the ratio.
	serial, par := time.Duration(1<<63-1), time.Duration(1<<63-1)
	for i := 0; i < 6; i++ {
		serial = min(serial, timed(1))
		par = min(par, timed(4))
	}
	speedup := float64(serial) / float64(par)
	t.Logf("fig7_fig8 fits: 1 worker %v, 4 workers %v, speedup %.2fx", serial, par, speedup)
	if speedup < 2 {
		t.Errorf("fit speedup %.2fx < 2x gate (1 worker %v, 4 workers %v)", speedup, serial, par)
	}
}

// TestJSONMatchesTSV decodes every artifact's JSON document and checks
// it holds exactly the TSV's values: same comments, columns, and
// cells, with numeric cells surviving as JSON numbers whose literals
// equal the TSV text.
func TestJSONMatchesTSV(t *testing.T) {
	g := quickResult(t).Report()
	for _, id := range report.All() {
		tsv := renderTSV(t, g, id)

		var b strings.Builder
		if err := report.WriteJSON(&b, g, id); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		var doc struct {
			Artifact string   `json:"artifact"`
			Comments []string `json:"comments"`
			Columns  []string `json:"columns"`
			Rows     [][]any  `json:"rows"` // json.Number or string, per cell
		}
		dec := json.NewDecoder(strings.NewReader(b.String()))
		dec.UseNumber()
		if err := dec.Decode(&doc); err != nil {
			t.Fatalf("%s: decode JSON: %v", id, err)
		}
		if doc.Artifact != string(id) {
			t.Errorf("%s: artifact field = %q", id, doc.Artifact)
		}

		// Reassemble the TSV from the decoded JSON: equality proves the
		// two encodings carry the same values (json.Number preserves
		// the literal, strings round-trip exactly).
		var re strings.Builder
		for _, c := range doc.Comments {
			fmt.Fprintf(&re, "# %s\n", c)
		}
		re.WriteString(strings.Join(doc.Columns, "\t") + "\n")
		for _, row := range doc.Rows {
			cells := make([]string, len(row))
			for j, cell := range row {
				switch v := cell.(type) {
				case json.Number:
					cells[j] = v.String()
				case string:
					cells[j] = v
				default:
					t.Fatalf("%s: cell %T, want json.Number or string", id, cell)
				}
			}
			re.WriteString(strings.Join(cells, "\t") + "\n")
		}
		if re.String() != tsv {
			t.Errorf("%s: JSON values diverge from TSV:\nfrom JSON:\n%s\nTSV:\n%s", id, re.String(), tsv)
		}
	}
}

// TestTableIPlacesSnapshotsByMonth: a snapshot's CAIDA columns go on the
// row of the month it falls in, whatever months the study holds. A
// daemon holding months 3 and 4 and the 2020-06-17 snapshot (month 4.5)
// used to render no CAIDA columns at all, and months {1, 2} with a
// snapshot at month 1.5 put them on the 2020-04 row: the snapshot was
// placed by its position in Study.Months, not by its month.
func TestTableIPlacesSnapshotsByMonth(t *testing.T) {
	res := quickResult(t)
	june := res.Study.Snapshots[0]
	march := june
	march.Month = 1.5
	for _, c := range []struct {
		months []int
		snap   correlate.Snapshot
		want   string // GNStart of the one row that carries the CAIDA columns
	}{
		{[]int{3, 4}, june, "2020-06-01"},
		{[]int{1, 2}, march, "2020-03-01"},
	} {
		var months []correlate.MonthData
		for _, m := range res.Study.Months {
			if slices.Contains(c.months, m.Month) {
				months = append(months, m)
			}
		}
		partial := &core.Result{
			Config:  res.Config,
			Study:   correlate.Study{Months: months, Snapshots: []correlate.Snapshot{c.snap}},
			Windows: res.Windows[:1],
		}
		rows := partial.Report().TableI()
		if len(rows) != len(c.months) {
			t.Fatalf("months %v: Table I has %d rows", c.months, len(rows))
		}
		for _, row := range rows {
			if carries := row.CAIDAStart != ""; carries != (row.GNStart == c.want) {
				t.Errorf("months %v, snapshot at month %.2f: row %s carries CAIDA columns = %v, want them on %s only",
					c.months, c.snap.Month, row.GNStart, carries, c.want)
			}
		}
	}
}

// TestUnknownArtifact covers the renderer's error path.
func TestUnknownArtifact(t *testing.T) {
	g := quickResult(t).Report()
	if err := report.WriteTSV(&strings.Builder{}, g, "fig9"); err == nil {
		t.Error("unknown artifact rendered without error")
	}
	if err := report.WriteJSON(&strings.Builder{}, g, "fig9"); err == nil {
		t.Error("unknown artifact rendered without error")
	}
}
