package correlate

import (
	"math"
	"testing"

	"repro/internal/stats"
)

func mkSeries(dts []float64, fr []float64, sources int) Series {
	return Series{Snapshot: "t", Band: 5, Sources: sources, Dt: dts, Fraction: fr,
		Labels: make([]string, len(dts))}
}

func TestBackgroundEstimate(t *testing.T) {
	s := mkSeries(
		[]float64{-5, -4, -1, 0, 1, 4, 5},
		[]float64{0.1, 0.12, 0.5, 0.8, 0.5, 0.11, 0.09}, 100)
	bg, ok := s.Background(4)
	if !ok {
		t.Fatal("no background found")
	}
	want := (0.1 + 0.12 + 0.11 + 0.09) / 4
	if math.Abs(bg-want) > 1e-12 {
		t.Errorf("background = %g, want %g", bg, want)
	}
	if _, ok := s.Background(100); ok {
		t.Error("background found with impossible minDt")
	}
}

func TestSubtractBackgroundClamps(t *testing.T) {
	s := mkSeries([]float64{0, 1}, []float64{0.5, 0.05}, 10)
	out := s.SubtractBackground(0.1)
	if math.Abs(out.Fraction[0]-0.4) > 1e-12 {
		t.Errorf("subtracted peak = %g, want 0.4", out.Fraction[0])
	}
	if out.Fraction[1] != 0 {
		t.Errorf("below-floor point = %g, want clamped 0", out.Fraction[1])
	}
	// Original untouched.
	if s.Fraction[0] != 0.5 {
		t.Error("SubtractBackground mutated the receiver")
	}
}

func TestFitExcessSharpensBeta(t *testing.T) {
	// A modified-Cauchy beam riding on a constant floor: the excess fit
	// must recover the beam's beta better than the raw fit.
	truth := stats.ModifiedCauchy{Alpha: 1, Beta: 1}
	floor := 0.2
	dts := make([]float64, 15)
	fr := make([]float64, 15)
	for i := range dts {
		dts[i] = float64(i - 4)
		fr[i] = floor + 0.6*truth.Eval(dts[i])
	}
	s := mkSeries(dts, fr, 1000)

	rawBeta := s.Fit().Model.(stats.ModifiedCauchy).Beta
	excessFit, estFloor := s.FitExcess(6)
	exBeta := excessFit.Model.(stats.ModifiedCauchy).Beta

	// The estimator necessarily includes the beam's own far tail (a
	// β = 1 modified Cauchy still carries ~0.07 at dt = 8), so the
	// estimate sits slightly above the true floor.
	if estFloor < floor || estFloor > floor+0.1 {
		t.Errorf("estimated floor = %g, want in [%g, %g]", estFloor, floor, floor+0.1)
	}
	if math.Abs(exBeta-truth.Beta) >= math.Abs(rawBeta-truth.Beta) {
		t.Errorf("excess fit beta %g no better than raw %g (truth %g)",
			exBeta, rawBeta, truth.Beta)
	}
	if math.Abs(exBeta-truth.Beta) > 0.5 {
		t.Errorf("excess beta = %g, want ~%g", exBeta, truth.Beta)
	}
}

func TestFitExcessFallsBack(t *testing.T) {
	s := mkSeries([]float64{0, 1}, []float64{0.5, 0.4}, 10)
	fit, floor := s.FitExcess(100)
	if floor != 0 {
		t.Errorf("fallback floor = %g, want 0", floor)
	}
	if fit.Peak != 0.5 {
		t.Errorf("fallback fit peak = %g", fit.Peak)
	}
}

func TestFitSweepExcessRecoversDipBetter(t *testing.T) {
	// Curves with a shared floor: the excess sweep must recover the
	// dipped band's drop closer to truth than the raw sweep does.
	betas := map[int]float64{4: 4.0, 8: 1.0}
	floor := 0.15
	study := synthStudy([]int{4, 8}, 2000, 5, 15, func(b int, dt float64) float64 {
		m := stats.ModifiedCauchy{Alpha: 1, Beta: betas[b]}
		return floor + 0.6*m.Eval(dt)
	})
	f := Freeze(study, 1)
	bands := f.SweepBands(0, 10)
	if len(bands) != 2 {
		t.Fatalf("sweep bands = %v, want 2", bands)
	}
	trueDrop := map[int]float64{4: 1.0 / 5.0, 8: 1.0 / 2.0}
	for _, b := range bands {
		series, err := f.Temporal(0, b)
		if err != nil {
			t.Fatal(err)
		}
		raw := series.Fit().Model.(stats.ModifiedCauchy).OneMonthDrop()
		fit, _ := series.FitExcess(6)
		excess := fit.Model.(stats.ModifiedCauchy).OneMonthDrop()
		if math.Abs(excess-trueDrop[b]) > math.Abs(raw-trueDrop[b])+1e-9 {
			t.Errorf("band %d: excess drop %g worse than raw %g (truth %g)", b, excess, raw, trueDrop[b])
		}
		// The dipped band's excess drop should approach 0.5.
		if b == 8 && math.Abs(excess-0.5) > 0.12 {
			t.Errorf("dip band excess drop = %g, want ~0.5", excess)
		}
	}
}

func TestWilsonBand(t *testing.T) {
	s := mkSeries([]float64{0, 1}, []float64{0.5, 0.1}, 100)
	lo, hi := s.WilsonBand()
	if len(lo) != 2 || len(hi) != 2 {
		t.Fatal("wrong interval count")
	}
	for i := range lo {
		if lo[i] > s.Fraction[i] || hi[i] < s.Fraction[i] {
			t.Errorf("point %d: CI [%g, %g] excludes estimate %g", i, lo[i], hi[i], s.Fraction[i])
		}
	}
	if hi[0]-lo[0] > 0.25 {
		t.Errorf("CI too wide for n=100: [%g, %g]", lo[0], hi[0])
	}
}

func TestPeakCorrelationHasIntervals(t *testing.T) {
	study := synthStudy([]int{4}, 200, 5, 15, func(int, float64) float64 { return 0.5 })
	f := Freeze(study, 1)
	mi, err := f.SameMonthIndex(0)
	if err != nil {
		t.Fatal(err)
	}
	pts := f.PeakCorrelation(0, mi)
	for _, p := range pts {
		if p.CILo > p.Fraction || p.CIHi < p.Fraction {
			t.Errorf("band %d: CI [%g, %g] excludes %g", p.Band, p.CILo, p.CIHi, p.Fraction)
		}
		if p.CILo == 0 && p.CIHi == 1 {
			t.Errorf("band %d: degenerate CI", p.Band)
		}
	}
}
