package core

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/report"
	"repro/internal/testkit"
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
	if got := c.sqrtNVLog2(); got != 7 {
		t.Errorf("sqrtNVLog2 = %g, want 7", got)
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
		if n := len(snap.Addrs()); n != w.Matrix.NRows() {
			t.Errorf("window %d: snapshot sources %d != matrix rows %d",
				i, n, w.Matrix.NRows())
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

// TestPaperLaws judges report's law table on the quick study. Quick
// scale is where the sample-size rule bites: a law may read n/a there,
// but none may fail.
func TestPaperLaws(t *testing.T) {
	g := quickResult(t).Report()
	for _, l := range report.Laws() {
		t.Run(l.ID, func(t *testing.T) {
			r := g.Judge(l)
			t.Logf("%s: %s", r.Verdict, r.Measured)
			if r.Verdict == report.Fail {
				t.Errorf("%s (%s): %s, want %s", l.ID, l.Claim, r.Measured, l.Rule)
			}
		})
	}
}

// TestPaperLawsAcrossSeeds is the gate where the laws hold: at default
// scale every law reads a populated sample and passes, on every seed.
// The studies run in parallel; each is about two seconds on 2 vCPUs.
func TestPaperLawsAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("five default-scale studies")
	}
	if testkit.RaceEnabled {
		t.Skip("five default-scale studies take minutes under the race detector")
	}
	for seed := int64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			cfg := DefaultConfig()
			cfg.Radiation.Seed = seed
			p, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := p.Run()
			if err != nil {
				t.Fatal(err)
			}
			g := res.Report()
			for _, l := range report.Laws() {
				if r := g.Judge(l); r.Verdict != report.Pass {
					t.Errorf("%s (%s): %s: %s, want %s", l.ID, l.Claim, r.Verdict, r.Measured, l.Rule)
				}
			}
		})
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
		ss, ps := serial.Study.Snapshots[i].Addrs(), sharded.Study.Snapshots[i].Addrs()
		if !slices.Equal(ss, ps) {
			t.Errorf("window %d: source sets differ: %d vs %d sources", i, len(ss), len(ps))
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
