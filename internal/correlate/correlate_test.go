package correlate

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/assoc"
	"repro/internal/ipaddr"
	"repro/internal/stats"
)

// synthStudy builds a study where ground truth is exact: the snapshot
// holds nPerBand sources per band, and month tables include each source
// with a deterministic pattern realized by index arithmetic: the first
// round(frac*n) sources of a band are present. Source i of band b is
// the address (b+1).0.0.0 + i, so every row key is a dotted quad as
// Freeze requires.
func synthStudy(bands []int, nPerBand int, snapMonth float64, months int,
	frac func(band int, dt float64) float64) Study {

	snap := Snapshot{Label: "synth", Month: snapMonth, NV: 1 << 20, Sources: assoc.New()}
	ip := func(band, i int) string { return (ipaddr.Addr(band+1)<<24 | ipaddr.Addr(i)).String() }
	for _, b := range bands {
		for i := 0; i < nPerBand; i++ {
			// brightness at the band's lower edge
			snap.Sources.Set(ip(b, i), "packets", assoc.Num(stats.BandLow(b)))
		}
	}
	study := Study{Snapshots: []Snapshot{snap}}
	for m := 0; m < months; m++ {
		md := MonthData{Label: fmt.Sprintf("m%02d", m), Month: m, Table: assoc.New()}
		for _, b := range bands {
			keep := int(math.Round(frac(b, float64(m)-snapMonth) * float64(nPerBand)))
			for i := 0; i < keep; i++ {
				md.Table.Set(ip(b, i), "seen", assoc.Num(1))
			}
		}
		study.Months = append(study.Months, md)
	}
	return study
}

// sweep assembles Figures 7 and 8's per-band fits the way the report
// graph does: one FitBand per SweepBands entry, in that order.
func sweep(t *testing.T, f *Frozen, si, minSources int) []BandFit {
	t.Helper()
	out := []BandFit{} // non-nil like the reference sweep, for DeepEqual
	for _, b := range f.SweepBands(si, minSources) {
		fit, ok := f.FitBand(si, b)
		if !ok {
			t.Fatalf("snapshot %d band %d: FitBand not ok for a SweepBands entry", si, b)
		}
		out = append(out, fit)
	}
	return out
}

func TestPeakCorrelationExact(t *testing.T) {
	study := synthStudy([]int{0, 4, 8}, 100, 5, 15, func(b int, dt float64) float64 {
		if dt == 0 {
			return float64(b) / 10.0
		}
		return 0
	})
	f := Freeze(study, 1)
	mi, err := f.SameMonthIndex(0)
	if err != nil {
		t.Fatal(err)
	}
	fracs := f.PeakCorrelation(0, mi)
	if len(fracs) != 3 {
		t.Fatalf("bands = %d, want 3", len(fracs))
	}
	for _, bf := range fracs {
		want := float64(bf.Band) / 10.0
		if math.Abs(bf.Fraction-want) > 1e-9 {
			t.Errorf("band %d fraction = %g, want %g", bf.Band, bf.Fraction, want)
		}
		if bf.Sources != 100 {
			t.Errorf("band %d sources = %d, want 100", bf.Band, bf.Sources)
		}
		if bf.D != stats.BandLow(bf.Band) {
			t.Errorf("band %d edge = %g", bf.Band, bf.D)
		}
	}
	// Bands sorted ascending.
	for i := 1; i < len(fracs); i++ {
		if fracs[i].Band <= fracs[i-1].Band {
			t.Error("bands not sorted")
		}
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

func TestPeakModelLaw(t *testing.T) {
	nv := 1 << 30 // sqrt(NV) = 2^15
	if got := PeakModel(1<<15, nv); got != 1 {
		t.Errorf("bright source model = %g, want 1", got)
	}
	if got := PeakModel(1<<20, nv); got != 1 {
		t.Errorf("clamp failed: %g", got)
	}
	// log2(2^5)/15 = 1/3
	if got := PeakModel(32, nv); math.Abs(got-5.0/15.0) > 1e-12 {
		t.Errorf("faint source model = %g, want 1/3", got)
	}
	if got := PeakModel(1, nv); got <= 0 {
		t.Errorf("d=1 model = %g, want > 0", got)
	}
}

func TestTemporalCorrelationRecoverGroundTruth(t *testing.T) {
	truth := stats.ModifiedCauchy{Alpha: 1, Beta: 4}
	peak := 0.8
	study := synthStudy([]int{6}, 1000, 5, 15, func(_ int, dt float64) float64 {
		return peak * truth.Eval(dt)
	})
	series, err := Freeze(study, 1).Temporal(0, 6)
	if err != nil {
		t.Fatal(err)
	}
	if series.Sources != 1000 || len(series.Fraction) != 15 {
		t.Fatalf("series shape: %d sources, %d points", series.Sources, len(series.Fraction))
	}
	// Peak at dt=0.
	for i, dt := range series.Dt {
		if dt == 0 && math.Abs(series.Fraction[i]-peak) > 1e-3 {
			t.Errorf("fraction at dt=0 is %g, want %g", series.Fraction[i], peak)
		}
	}
	fit := series.Fit()
	mc := fit.Model.(stats.ModifiedCauchy)
	if math.Abs(mc.Alpha-1) > 0.15 {
		t.Errorf("recovered alpha = %g, want ~1", mc.Alpha)
	}
	if math.Abs(mc.Beta-4)/4 > 0.3 {
		t.Errorf("recovered beta = %g, want ~4", mc.Beta)
	}
}

func TestTemporalCorrelationEmptyBand(t *testing.T) {
	study := synthStudy([]int{3}, 10, 5, 15, func(int, float64) float64 { return 1 })
	if _, err := Freeze(study, 1).Temporal(0, 9); err == nil {
		t.Error("empty band accepted")
	}
}

func TestFitAllPrefersModifiedCauchyOnCauchyishData(t *testing.T) {
	truth := stats.ModifiedCauchy{Alpha: 0.75, Beta: 2}
	study := synthStudy([]int{5}, 2000, 4, 15, func(_ int, dt float64) float64 {
		return 0.7 * truth.Eval(dt)
	})
	series, err := Freeze(study, 1).Temporal(0, 5)
	if err != nil {
		t.Fatal(err)
	}
	fits := series.FitAll()
	mc := fits["modified-cauchy"].Residual
	if mc > fits["gaussian"].Residual || mc > fits["cauchy"].Residual {
		t.Errorf("modified Cauchy residual %g worse than alternatives (%g, %g)",
			mc, fits["cauchy"].Residual, fits["gaussian"].Residual)
	}
}

func TestFitSweepShape(t *testing.T) {
	// Bands with different betas: the sweep must recover the per-band
	// drop ordering (Figure 8's dip).
	betas := map[int]float64{4: 4.0, 8: 1.0, 12: 4.0}
	study := synthStudy([]int{4, 8, 12}, 1500, 5, 15, func(b int, dt float64) float64 {
		m := stats.ModifiedCauchy{Alpha: 1, Beta: betas[b]}
		return 0.8 * m.Eval(dt)
	})
	fits := sweep(t, Freeze(study, 1), 0, 10)
	if len(fits) != 3 {
		t.Fatalf("sweep bands = %d, want 3", len(fits))
	}
	byBand := make(map[int]BandFit)
	for _, f := range fits {
		byBand[f.Band] = f
		if math.Abs(f.Alpha-1) > 0.3 {
			t.Errorf("band %d alpha = %g, want ~1", f.Band, f.Alpha)
		}
	}
	// Band 8 (beta=1) must show the biggest one-month drop (~0.5).
	if !(byBand[8].Drop > byBand[4].Drop && byBand[8].Drop > byBand[12].Drop) {
		t.Errorf("drop dip not recovered: %v", fits)
	}
	if math.Abs(byBand[8].Drop-0.5) > 0.15 {
		t.Errorf("dip drop = %g, want ~0.5", byBand[8].Drop)
	}
}

func TestFitSweepMinSources(t *testing.T) {
	study := synthStudy([]int{2}, 5, 5, 15, func(int, float64) float64 { return 1 })
	if fits := sweep(t, Freeze(study, 1), 0, 10); len(fits) != 0 {
		t.Errorf("minSources filter ignored: %v", fits)
	}
}

func TestSameMonth(t *testing.T) {
	study := synthStudy([]int{2}, 5, 4.5, 15, func(int, float64) float64 { return 1 })
	mi, err := Freeze(study, 1).SameMonthIndex(0)
	if err != nil {
		t.Fatal(err)
	}
	if got := study.Months[mi].Month; got != 4 {
		t.Errorf("same month = %d, want 4 (floor of 4.5)", got)
	}
	study.Snapshots[0].Month = 99
	if _, err := Freeze(study, 1).SameMonthIndex(0); err == nil {
		t.Error("missing month accepted")
	}
}

func TestSnapshotIgnoresNonNumericRows(t *testing.T) {
	snap := Snapshot{Label: "x", Month: 0, NV: 1024, Sources: assoc.New()}
	snap.Sources.Set("1.1.1.1", "packets", assoc.Num(4))
	snap.Sources.Set("2.2.2.2", "packets", assoc.Str("oops"))
	snap.Sources.Set("3.3.3.3", "note", assoc.Str("no packets column"))
	md := MonthData{Label: "m", Month: 0, Table: assoc.New()}
	md.Table.Set("1.1.1.1", "seen", assoc.Num(1))
	fracs := Freeze(Study{Snapshots: []Snapshot{snap}, Months: []MonthData{md}}, 1).PeakCorrelation(0, 0)
	total := 0
	for _, bf := range fracs {
		total += bf.Sources
	}
	if total != 1 {
		t.Errorf("non-numeric rows counted: %d", total)
	}
}
