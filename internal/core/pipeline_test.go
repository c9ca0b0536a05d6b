package core

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/stats"
)

// runQuick executes one QuickConfig study, shared across tests in this
// package to keep the suite fast.
var (
	quickOnce sync.Once
	quickRes  *Result
	quickErr  error
)

func quickResult(t *testing.T) *Result {
	t.Helper()
	quickOnce.Do(func() {
		p, err := New(QuickConfig())
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

func TestConfigValidate(t *testing.T) {
	for _, cfg := range []Config{DefaultConfig(), QuickConfig()} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("config invalid: %v", err)
		}
	}
	bad := QuickConfig()
	bad.NV = 0
	if bad.Validate() == nil {
		t.Error("NV=0 accepted")
	}
	bad = QuickConfig()
	bad.SnapshotTimes = nil
	if bad.Validate() == nil {
		t.Error("no snapshots accepted")
	}
	bad = QuickConfig()
	bad.SnapshotTimes = []time.Time{bad.StudyStart.AddDate(10, 0, 0)}
	if bad.Validate() == nil {
		t.Error("out-of-study snapshot accepted")
	}
	bad = QuickConfig()
	bad.Radiation.NumSources = 0
	if bad.Validate() == nil {
		t.Error("bad radiation config accepted")
	}
}

func TestMonthOfPaperDates(t *testing.T) {
	c := DefaultConfig()
	// 2020-06-17 is ~4.5 months after 2020-02-01.
	m := c.MonthOf(time.Date(2020, 6, 17, 12, 0, 0, 0, time.UTC))
	if m < 4.3 || m > 4.8 {
		t.Errorf("MonthOf(2020-06-17) = %g, want ~4.5", m)
	}
	// Last paper snapshot within 15 months.
	last := c.MonthOf(time.Date(2020, 12, 16, 12, 0, 0, 0, time.UTC))
	if last >= 15 {
		t.Errorf("last snapshot month %g outside study", last)
	}
}

func TestFig6BandsScale(t *testing.T) {
	c := DefaultConfig() // NV=2^20, sqrt exponent 10
	bands := c.Fig6Bands()
	if len(bands) < 4 {
		t.Fatalf("bands = %v, want >= 4 distinct", bands)
	}
	if bands[0] != 0 {
		t.Errorf("first band = %d, want 0", bands[0])
	}
	// At paper scale the bands must be exactly the paper's.
	c.NV = 1 << 30
	want := []int{0, 4, 8, 12, 16}
	got := c.Fig6Bands()
	if len(got) != len(want) {
		t.Fatalf("paper-scale bands = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("paper-scale band %d = %d, want %d", i, got[i], want[i])
		}
	}
	// Fig 5 band at paper scale is 14 (2^14 <= d < 2^15).
	if b := c.Fig5Band(); b != 14 {
		t.Errorf("paper-scale Fig5Band = %d, want 14", b)
	}
}

func TestFig5BandQuickScale(t *testing.T) {
	c := QuickConfig() // NV = 2^14, sqrt exponent 7
	if got := c.Fig5Band(); got != 6 {
		t.Errorf("Fig5Band = %d, want 6 (one octave below sqrt(NV))", got)
	}
	if got := c.SqrtNVLog2(); got != 7 {
		t.Errorf("SqrtNVLog2 = %g, want 7", got)
	}
}

func TestRunProducesFullStudy(t *testing.T) {
	r := quickResult(t)
	cfg := r.Config
	if len(r.Study.Months) != cfg.Radiation.Months {
		t.Fatalf("months = %d, want %d", len(r.Study.Months), cfg.Radiation.Months)
	}
	if len(r.Study.Snapshots) != len(cfg.SnapshotTimes) {
		t.Fatalf("snapshots = %d, want %d", len(r.Study.Snapshots), len(cfg.SnapshotTimes))
	}
	for i, w := range r.Windows {
		if w.NV != cfg.NV {
			t.Errorf("window %d NV = %d, want %d", i, w.NV, cfg.NV)
		}
		if w.Matrix.Sum() != float64(cfg.NV) {
			t.Errorf("window %d matrix sum = %g", i, w.Matrix.Sum())
		}
		snap := r.Study.Snapshots[i]
		if snap.Sources.NRows() != w.Matrix.NRows() {
			t.Errorf("window %d: table rows %d != matrix rows %d",
				i, snap.Sources.NRows(), w.Matrix.NRows())
		}
	}
}

func TestTableIShape(t *testing.T) {
	r := quickResult(t)
	rows := r.Report().TableI()
	if len(rows) != r.Config.Radiation.Months {
		t.Fatalf("Table I rows = %d", len(rows))
	}
	snapRows := 0
	for _, row := range rows {
		if row.GNSources <= 0 {
			t.Errorf("month %s has %d GN sources", row.GNStart, row.GNSources)
		}
		if row.GNDays < 28 || row.GNDays > 31 {
			t.Errorf("month %s duration %d days", row.GNStart, row.GNDays)
		}
		if row.CAIDAStart != "" {
			snapRows++
			if row.CAIDAPackets != r.Config.NV || row.CAIDASources <= 0 {
				t.Errorf("snapshot row malformed: %+v", row)
			}
		}
	}
	if snapRows != len(r.Study.Snapshots) {
		t.Errorf("snapshot rows = %d, want %d", snapRows, len(r.Study.Snapshots))
	}
}

func TestTableIIConsistent(t *testing.T) {
	r := quickResult(t)
	for i, q := range r.Report().TableII() {
		if q.ValidPackets != float64(r.Config.NV) {
			t.Errorf("window %d valid packets = %g", i, q.ValidPackets)
		}
		if q.UniqueSources > q.UniqueLinks || q.UniqueDestinations > q.UniqueLinks {
			t.Errorf("window %d: unique sources/dests exceed links: %+v", i, q)
		}
		if q.MaxSourcePackets > q.ValidPackets || q.MaxLinkPackets > q.MaxSourcePackets {
			t.Errorf("window %d: max ordering violated: %+v", i, q)
		}
	}
}

// TestFig3ZipfMandelbrot checks the paper's first headline result: the
// telescope degree distribution is ZM with alpha in the observed range.
func TestFig3ZipfMandelbrot(t *testing.T) {
	r := quickResult(t)
	for _, s := range r.Report().Fig3() {
		if s.Alpha < 1.3 || s.Alpha > 2.3 {
			t.Errorf("snapshot %s: fitted alpha = %g, want in [1.3, 2.3] (paper: 1.76)", s.Label, s.Alpha)
		}
		if s.Binned.Total == 0 {
			t.Errorf("snapshot %s: empty distribution", s.Label)
		}
	}
}

// TestFig4PeakCorrelation checks the second headline: bright sources are
// (nearly) always seen the same month, and faint-source visibility grows
// with log brightness.
func TestFig4PeakCorrelation(t *testing.T) {
	r := quickResult(t)
	series, err := r.Report().Fig4()
	if err != nil {
		t.Fatal(err)
	}
	brightLog2 := r.Config.SqrtNVLog2()
	for _, s := range series {
		var faintFracs []float64
		var faintBands []int
		for i, p := range s.Points {
			if p.Sources < 15 {
				continue // too noisy to assert on
			}
			if float64(p.Band) >= brightLog2 {
				if p.Fraction < 0.6 {
					t.Errorf("%s band 2^%d (bright): fraction %g, want > 0.6", s.Label, p.Band, p.Fraction)
				}
			} else {
				faintFracs = append(faintFracs, p.Fraction)
				faintBands = append(faintBands, p.Band)
			}
			if s.Model[i] < 0 || s.Model[i] > 1 {
				t.Errorf("model out of range: %g", s.Model[i])
			}
		}
		// Faint-band visibility must increase with brightness overall:
		// compare the mean of the lower half against the upper half.
		if len(faintFracs) >= 4 {
			h := len(faintFracs) / 2
			lo, hi := stats.Summarize(faintFracs[:h]), stats.Summarize(faintFracs[h:])
			if hi.Mean <= lo.Mean {
				t.Errorf("%s: faint visibility not increasing: low bands %v mean %g, high bands %v mean %g",
					s.Label, faintBands[:h], lo.Mean, faintBands[h:], hi.Mean)
			}
		}
	}
}

// TestFig5ModifiedCauchyWins checks the third headline: the temporal
// decay is better described by the modified Cauchy than by Gaussian or
// standard Cauchy.
func TestFig5ModifiedCauchyWins(t *testing.T) {
	r := quickResult(t)
	series, fits, err := r.Report().Fig5()
	if err != nil {
		t.Fatal(err)
	}
	if len(series.Fraction) != r.Config.Radiation.Months {
		t.Fatalf("series has %d points", len(series.Fraction))
	}
	mc := fits["modified-cauchy"].Residual
	if mc > fits["gaussian"].Residual+1e-9 {
		t.Errorf("modified Cauchy (%g) fits worse than Gaussian (%g)", mc, fits["gaussian"].Residual)
	}
	if mc > fits["cauchy"].Residual+1e-9 {
		t.Errorf("modified Cauchy (%g) fits worse than Cauchy (%g)", mc, fits["cauchy"].Residual)
	}
}

func TestFig6CurvesPeakNearSnapshot(t *testing.T) {
	r := quickResult(t)
	all, fits := r.Report().Fig6()
	if len(all) == 0 {
		t.Fatal("no Fig6 series")
	}
	if len(all) != len(fits) {
		t.Fatal("series/fit count mismatch")
	}
	for _, s := range all {
		if s.Sources < 50 {
			continue
		}
		// Robust peak check: the mean correlation within ±1.5 months of
		// the snapshot must exceed the mean beyond 4 months (individual
		// bins are noisy at quick scale).
		var near, far []float64
		for i, v := range s.Fraction {
			switch a := math.Abs(s.Dt[i]); {
			case a <= 1.5:
				near = append(near, v)
			case a >= 4:
				far = append(far, v)
			}
		}
		if len(near) == 0 || len(far) == 0 {
			continue
		}
		nm, fm := stats.Summarize(near).Mean, stats.Summarize(far).Mean
		if nm <= fm {
			t.Errorf("%s band 2^%d (%d sources): near-peak mean %g <= far mean %g",
				s.Snapshot, s.Band, s.Sources, nm, fm)
		}
	}
}

// TestFig7AlphaNearOne checks the paper's "1 is a typical value of α".
func TestFig7AlphaNearOne(t *testing.T) {
	r := quickResult(t)
	sweeps := r.Report().Fig7And8()
	var alphas []float64
	for _, sweep := range sweeps {
		for _, f := range sweep {
			if f.Sources >= 50 {
				alphas = append(alphas, f.Alpha)
			}
		}
	}
	if len(alphas) == 0 {
		t.Skip("no well-populated bands at quick scale")
	}
	s := stats.Summarize(alphas)
	if s.Mean < 0.4 || s.Mean > 1.8 {
		t.Errorf("mean fitted alpha = %g over %d bands, want near 1", s.Mean, s.N)
	}
}

// TestFig8DropRange checks the one-month drop magnitudes: the paper
// reports typical drops above 20%, rising toward ~50% at the dip.
func TestFig8DropRange(t *testing.T) {
	r := quickResult(t)
	var drops []float64
	for _, sweep := range r.Report().Fig7And8() {
		for _, f := range sweep {
			if f.Sources >= 50 {
				drops = append(drops, f.Drop)
			}
		}
	}
	if len(drops) == 0 {
		t.Skip("no well-populated bands at quick scale")
	}
	s := stats.Summarize(drops)
	if s.Mean < 0.1 || s.Mean > 0.7 {
		t.Errorf("mean one-month drop = %g, want in [0.1, 0.7] (paper: >0.2)", s.Mean)
	}
}

func TestRunFailsWhenPopulationTooSmall(t *testing.T) {
	cfg := QuickConfig()
	cfg.Radiation.NumSources = 50
	cfg.NV = 1 << 20 // far more packets than 50 sources can emit
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(); err == nil {
		t.Error("undersized population produced a full window")
	}
}

// TestShardedStudyMatchesSerial asserts the engine-backed study is
// worker-count invariant: on a fixed seed, a one-worker and a
// four-worker run produce identical windows (NNZ, NRows, Table II
// quantities) and identical D4M source tables.
func TestShardedStudyMatchesSerial(t *testing.T) {
	cfg := QuickConfig()
	cfg.Radiation.NumSources = 3000
	cfg.NV = 1 << 12
	cfg.LeafSize = 1 << 8
	run := func(workers int) *Result {
		c := cfg
		c.Workers = workers
		p, err := New(c)
		if err != nil {
			t.Fatal(err)
		}
		r, err := p.Run()
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	serial, sharded := run(1), run(4)
	serialQ, shardedQ := serial.Report().TableII(), sharded.Report().TableII()
	for i := range serial.Windows {
		sw, pw := serial.Windows[i], sharded.Windows[i]
		if sw.Matrix.NNZ() != pw.Matrix.NNZ() {
			t.Errorf("window %d: NNZ %d vs %d", i, sw.Matrix.NNZ(), pw.Matrix.NNZ())
		}
		if sw.Matrix.NRows() != pw.Matrix.NRows() {
			t.Errorf("window %d: NRows %d vs %d", i, sw.Matrix.NRows(), pw.Matrix.NRows())
		}
		if serialQ[i] != shardedQ[i] {
			t.Errorf("window %d: Table II quantities differ:\nserial  %+v\nsharded %+v", i, serialQ[i], shardedQ[i])
		}
		ss, ps := serial.Study.Snapshots[i].Sources, sharded.Study.Snapshots[i].Sources
		if ss.NRows() != ps.NRows() {
			t.Errorf("window %d: source tables differ: %d vs %d rows", i, ss.NRows(), ps.NRows())
		}
	}
}

// TestRunContextCancel asserts a study can be abandoned mid-window.
func TestRunContextCancel(t *testing.T) {
	cfg := QuickConfig()
	cfg.Workers = 2
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.RunContext(ctx); err == nil {
		t.Error("cancelled study succeeded")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	cfg := QuickConfig()
	cfg.Radiation.NumSources = 3000
	cfg.NV = 1 << 12
	run := func() *Result {
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
	a, b := run(), run()
	for i := range a.Windows {
		if a.Windows[i].Matrix.NNZ() != b.Windows[i].Matrix.NNZ() {
			t.Errorf("window %d NNZ differs between runs", i)
		}
	}
	for i := range a.Study.Months {
		if a.Study.Months[i].Sources() != b.Study.Months[i].Sources() {
			t.Errorf("month %d sources differ between runs", i)
		}
	}
}
