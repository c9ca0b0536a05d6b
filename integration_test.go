package repro

// integration_test.go exercises the full cross-module chain at the wire
// level, independent of the core pipeline's orchestration: radiation
// packets are serialized to a real pcap byte stream, read back, filtered
// and windowed by the telescope, reduced through anonymized hypersparse
// matrices into D4M tables, and correlated against honeyfarm months. It
// is the end-to-end proof that every boundary in the architecture
// diagram actually composes.

import (
	"bytes"
	"context"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/correlate"
	"repro/internal/honeyfarm"
	"repro/internal/netquant"
	"repro/internal/pcap"
	"repro/internal/radiation"
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/telescope"
)

// TestScenarioSuite runs the complete YAML scenario zoo under
// scenarios/ as Go subtests: the same files, runner, and assertions
// the cmd/scenarios CLI checks, and tier-1's one run of the zoo (under
// -race too in CI). A failing subtest names the scenario and the
// assertion that did not hold.
func TestScenarioSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("full scenario zoo")
	}
	scs, err := scenario.LoadDir("scenarios")
	if err != nil {
		t.Fatalf("loading scenarios: %v", err)
	}
	for _, sc := range scs {
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			r := scenario.Run(context.Background(), sc)
			if r.Err != nil {
				t.Fatalf("scenario %s (%s): %v", sc.Name, sc.Path, r.Err)
			}
			for _, c := range r.Checks {
				if c.Pass {
					t.Logf("ok   %-28s %s", c.Assertion, c.Detail)
				} else {
					t.Errorf("FAIL %s: %s", c.Assertion, c.Detail)
				}
			}
		})
	}
}

// TestE2ECasesAudit pins docs/e2e-cases.md to reality: every `done`
// row must name its coverage, the Z-table must match the shipped
// scenario files one-to-one (same drift check as `scenarios -audit`),
// and every Test/Fuzz/Benchmark function a `done` row cites must be
// declared in some _test.go file of this repository (a trailing `*`
// cites a prefix).
func TestE2ECasesAudit(t *testing.T) {
	scs, err := scenario.LoadDir("scenarios")
	if err != nil {
		t.Fatal(err)
	}
	findings, err := scenario.Audit("docs/e2e-cases.md", scs)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s: %s", f.Case, f.Problem)
	}

	var tests strings.Builder // every _test.go file of the repository
	err = filepath.WalkDir(".", func(path string, _ fs.DirEntry, err error) error {
		if err == nil && strings.HasSuffix(path, "_test.go") {
			var src []byte
			src, err = os.ReadFile(path)
			tests.Write(src)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := os.ReadFile("docs/e2e-cases.md")
	if err != nil {
		t.Fatal(err)
	}
	cited := regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z0-9]\w*\*?`)
	for _, line := range strings.Split(string(doc), "\n") {
		// Case ID | Title | Priority | Smoke | Status | Coverage
		cells := strings.Split(strings.Trim(strings.TrimSpace(line), "|"), "|")
		if len(cells) != 6 || strings.TrimSpace(cells[4]) != "done" {
			continue
		}
		for _, name := range cited.FindAllString(cells[5], -1) {
			decl := "\nfunc " + name + "("
			if prefix, ok := strings.CutSuffix(name, "*"); ok {
				decl = "\nfunc " + prefix
			}
			if !strings.Contains(tests.String(), decl) {
				t.Errorf("%s: Coverage cites %s, which no _test.go file declares", strings.TrimSpace(cells[0]), name)
			}
		}
	}
}

func TestEndToEndWireLevel(t *testing.T) {
	cfg := radiation.DefaultConfig()
	cfg.NumSources = 8000
	cfg.ZM = stats.PaperZM(1 << 12)
	cfg.BrightLog2 = 7
	pop, err := radiation.NewPopulation(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// --- Telescope side: packets -> pcap bytes -> reader -> window ---
	snapMonth := 4.5
	snapTime := time.Date(2020, 6, 17, 12, 0, 0, 0, time.UTC)
	var wire bytes.Buffer
	pw, err := pcap.NewWriter(&wire)
	if err != nil {
		t.Fatal(err)
	}
	st := pop.TelescopeStream(snapMonth, snapTime)
	var pkt pcap.Packet
	for st.Next(&pkt) {
		if err := pw.WritePacket(&pkt); err != nil {
			t.Fatal(err)
		}
	}
	if err := pw.Flush(); err != nil {
		t.Fatal(err)
	}
	t.Logf("pcap stream: %d packets, %d bytes", pw.Count(), wire.Len())

	pr, err := pcap.NewReader(bytes.NewReader(wire.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	const nv = 1 << 14
	tel := telescope.New(cfg.Darkspace, "integration-key", telescope.WithLeafSize(1<<10))
	win, err := tel.CaptureWindowEngine(context.Background(), &telescope.ReaderSource{R: pr}, nv, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if win.NV != nv {
		t.Fatalf("window NV = %d, want %d (stream only had %d packets)", win.NV, nv, pw.Count())
	}

	// Table II on the anonymized matrix.
	q := netquant.Compute(win.Matrix)
	if q.ValidPackets != nv {
		t.Fatalf("valid packets = %g", q.ValidPackets)
	}
	if q.UniqueSources < 100 {
		t.Fatalf("implausibly few sources: %g", q.UniqueSources)
	}

	// Figure 3 on the window.
	alpha, _, _ := stats.FitZipfMandelbrot(netquant.SourcePacketDistribution(win.Matrix), nv)
	if alpha < 1.2 || alpha > 2.4 {
		t.Errorf("window ZM alpha = %g, outside the power-law regime", alpha)
	}

	// --- Honeyfarm side: 15 months of enriched tables ---
	study := correlate.Study{}
	base := time.Date(2020, 2, 1, 0, 0, 0, 0, time.UTC)
	for m := 0; m < cfg.Months; m++ {
		ms := base.AddDate(0, m, 0)
		label := ms.Format("2006-01")
		mw := honeyfarm.BuildMonth(label, pop.HoneyfarmMonth(m, ms))
		study.Months = append(study.Months, correlate.MonthData{Label: label, Month: m, Table: mw.Table})
	}

	// --- Correlation: telescope D4M table vs honeyfarm months ---
	snap := correlate.Snapshot{
		Label:   "integration",
		Month:   snapMonth,
		NV:      nv,
		Sources: tel.SourceTable(win),
	}
	study.Snapshots = []correlate.Snapshot{snap}

	frozen := correlate.Freeze(study, 1)
	mi, err := frozen.SameMonthIndex(0)
	if err != nil {
		t.Fatal(err)
	}
	peak := frozen.PeakCorrelation(0, mi)
	if len(peak) < 5 {
		t.Fatalf("only %d brightness bands", len(peak))
	}
	// Fig 4's Wilson intervals contain their point estimates.
	for _, p := range peak {
		if p.CILo > p.Fraction || p.CIHi < p.Fraction {
			t.Fatalf("band %d: CI [%g, %g] excludes the estimate %g", p.Band, p.CILo, p.CIHi, p.Fraction)
		}
	}
	// Bright bands beat faint bands (the Figure 4 trend), compared over
	// well-populated bands only.
	var faint, bright []float64
	for _, p := range peak {
		if p.Sources < 20 {
			continue
		}
		if float64(p.Band) < cfg.BrightLog2/2 {
			faint = append(faint, p.Fraction)
		} else {
			bright = append(bright, p.Fraction)
		}
	}
	if len(faint) > 0 && len(bright) > 0 {
		if stats.Summarize(bright).Mean <= stats.Summarize(faint).Mean {
			t.Errorf("bright bands (%v) do not exceed faint bands (%v)", bright, faint)
		}
	}

	// Temporal correlation + modified-Cauchy fit on a mid band.
	series, err := frozen.Temporal(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	fit := series.Fit()
	mc := fit.Model.(stats.ModifiedCauchy)
	if mc.Alpha <= 0 || mc.Beta <= 0 {
		t.Fatalf("degenerate fit: %+v", mc)
	}
	// The curve must actually decay: the near-peak mean exceeds the far
	// tail mean.
	var near, far []float64
	for i, dt := range series.Dt {
		if math.Abs(dt) <= 1.5 {
			near = append(near, series.Fraction[i])
		} else if math.Abs(dt) >= 5 {
			far = append(far, series.Fraction[i])
		}
	}
	if stats.Summarize(near).Mean <= stats.Summarize(far).Mean {
		t.Errorf("no temporal decay: near %v vs far %v", near, far)
	}

}

// TestEndToEndParallelCaptureAgreesOnTables verifies a one-shard and a
// four-shard capture feed identical D4M tables into the correlation
// stage.
func TestEndToEndParallelCaptureAgreesOnTables(t *testing.T) {
	cfg := radiation.DefaultConfig()
	cfg.NumSources = 3000
	cfg.ZM = stats.PaperZM(1 << 10)
	pop, err := radiation.NewPopulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const nv = 4096
	mkTable := func(parallel bool) map[string]float64 {
		tel := telescope.New(cfg.Darkspace, "agree-key")
		var win *telescope.Window
		var err error
		if parallel {
			win, err = tel.CaptureWindowEngine(context.Background(), pop.TelescopeStream(3, time.Unix(0, 0)), nv, 4, 0)
		} else {
			win, err = tel.CaptureWindowEngine(context.Background(), pop.TelescopeStream(3, time.Unix(0, 0)), nv, 1, 0)
		}
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string]float64)
		table := tel.SourceTable(win)
		for _, row := range table.RowKeys() {
			v, _ := table.Get(row, "packets")
			out[row] = v.Num
		}
		return out
	}
	serial, parallel := mkTable(false), mkTable(true)
	if len(serial) != len(parallel) {
		t.Fatalf("table sizes differ: %d vs %d", len(serial), len(parallel))
	}
	for k, v := range serial {
		if parallel[k] != v {
			t.Fatalf("row %s differs: %g vs %g", k, v, parallel[k])
		}
	}
}
