package report

// artifacts.go holds the per-artifact compute jobs and their typed
// accessors; the artifacts that walk independent windows or
// (snapshot, band) pairs — table2, fig3, fig6, fig7_fig8 — run them
// across the shared worker pool (Graph.each).

import (
	"context"
	"fmt"
	"math"

	"repro/internal/correlate"
	"repro/internal/netquant"
	"repro/internal/pool"
	"repro/internal/stats"
)

// TableIRow is one line of the paper's Table I dataset inventory.
type TableIRow struct {
	GNStart   string
	GNDays    int
	GNSources int
	// CAIDA columns are empty except for snapshot months.
	CAIDAStart    string
	CAIDADuration string
	CAIDAPackets  int
	CAIDASources  int
}

// Fig3Series is one snapshot's degree distribution with its
// Zipf-Mandelbrot fit.
type Fig3Series struct {
	Label    string
	Binned   *stats.Binned
	Alpha    float64 // fitted ZM exponent
	Delta    float64 // fitted ZM offset
	Residual float64
}

// Fig4Series is one snapshot's peak-correlation curve with the paper's
// logarithmic model.
type Fig4Series struct {
	Label  string
	Points []correlate.BandFraction
	Model  []float64 // PeakModel evaluated at each point's band edge
}

// fig5Data bundles Figure 5's series with its three model fits — one
// graph node, since both halves come from the same Temporal call.
type fig5Data struct {
	Series correlate.Series
	Fits   map[string]stats.TemporalFit
}

// fig6Data bundles Figure 6's curves with their index-aligned fits.
type fig6Data struct {
	Series []correlate.Series
	Fits   []stats.TemporalFit
}

// TableI reproduces the dataset inventory: one row per honeyfarm month,
// with telescope columns filled on snapshot months. A row is a month,
// so when several snapshots fall in one, its columns show the last.
func (g *Graph) TableI() []TableIRow {
	v, _ := g.get(Table1) // cannot fail
	return v.([]TableIRow)
}

func runTableI(g *Graph) (any, error) {
	rows := make([]TableIRow, len(g.in.Study.Months))
	byMonth := make(map[int]*TableIRow, len(rows)) // a study need not hold months 0..n-1
	for i, m := range g.in.Study.Months {
		start := g.in.Params.StudyStart.AddDate(0, m.Month, 0)
		end := start.AddDate(0, 1, 0)
		rows[i] = TableIRow{
			GNStart:   start.Format("2006-01-02"),
			GNDays:    int(end.Sub(start).Hours() / 24),
			GNSources: m.Sources(),
		}
		byMonth[m.Month] = &rows[i]
	}
	for si, snap := range g.in.Study.Snapshots {
		row := byMonth[int(math.Floor(snap.Month))]
		if row == nil {
			continue
		}
		w := g.in.Windows[si]
		row.CAIDAStart = snap.Label
		row.CAIDADuration = fmt.Sprintf("%.0f sec", w.Duration().Seconds())
		row.CAIDAPackets = w.NV
		row.CAIDASources = w.Matrix.NRows()
	}
	return rows, nil
}

// TableII computes the network quantities of each snapshot's anonymized
// matrix.
func (g *Graph) TableII() []netquant.Quantities {
	v, _ := g.get(Table2) // cannot fail
	return v.([]netquant.Quantities)
}

func runTableII(g *Graph) (any, error) {
	out := make([]netquant.Quantities, len(g.in.Windows))
	g.each(len(out), func(i int) {
		out[i] = netquant.Compute(g.in.Windows[i].Matrix)
	})
	return out, nil
}

// each runs do(0..n-1) on the study's worker pool. The jobs of an
// artifact are independent and write index-addressed slots, so the
// artifact does not depend on the worker count.
func (g *Graph) each(n int, do func(i int)) {
	_ = pool.Each(context.Background(), g.in.Params.Workers, n, func(_ context.Context, i int) error {
		do(i)
		return nil
	})
}

// Fig3 computes the source-packet degree distribution and ZM fit for
// every snapshot (the paper's Figure 3).
func (g *Graph) Fig3() []Fig3Series {
	v, _ := g.get(Fig3) // cannot fail
	return v.([]Fig3Series)
}

func runFig3(g *Graph) (any, error) {
	out := make([]Fig3Series, len(g.in.Windows))
	g.each(len(out), func(i int) {
		b := netquant.SourcePacketDistribution(g.in.Windows[i].Matrix)
		a, d, res := stats.FitZipfMandelbrot(b, float64(g.in.Params.NV))
		out[i] = Fig3Series{
			Label:  g.in.Study.Snapshots[i].Label,
			Binned: b,
			Alpha:  a, Delta: d, Residual: res,
		}
	})
	return out, nil
}

// Fig4 computes the same-month correlation by brightness for every
// snapshot, on the frozen sorted-key kernel.
func (g *Graph) Fig4() ([]Fig4Series, error) {
	v, err := g.get(Fig4)
	if err != nil {
		return nil, err
	}
	return v.([]Fig4Series), nil
}

func runFig4(g *Graph) (any, error) {
	f := g.Frozen()
	out := make([]Fig4Series, 0, len(g.in.Study.Snapshots))
	for si, snap := range g.in.Study.Snapshots {
		mi, err := f.SameMonthIndex(si)
		if err != nil {
			return nil, err
		}
		pts := f.PeakCorrelation(si, mi)
		model := make([]float64, len(pts))
		for i, p := range pts {
			model[i] = correlate.PeakModel(p.D, snap.NV)
		}
		out = append(out, Fig4Series{Label: snap.Label, Points: pts, Model: model})
	}
	return out, nil
}

// Fig5 computes the temporal correlation of the first snapshot's
// Fig5Band sources with all three model fits (the paper's Figure 5).
func (g *Graph) Fig5() (correlate.Series, map[string]stats.TemporalFit, error) {
	v, err := g.get(Fig5)
	if err != nil {
		return correlate.Series{}, nil, err
	}
	d := v.(fig5Data)
	return d.Series, d.Fits, nil
}

func runFig5(g *Graph) (any, error) {
	if len(g.in.Study.Snapshots) == 0 {
		return nil, fmt.Errorf("report: no snapshots")
	}
	series, err := g.Frozen().Temporal(0, g.in.Params.Fig5Band)
	if err != nil {
		return nil, err
	}
	return fig5Data{Series: series, Fits: series.FitAll()}, nil
}

// Fig6 computes the temporal correlation curves for every snapshot and
// every Fig6 band, with modified-Cauchy fits. Bands a snapshot lacks are
// skipped.
func (g *Graph) Fig6() ([]correlate.Series, []stats.TemporalFit) {
	v, _ := g.get(Fig6) // cannot fail
	d := v.(fig6Data)
	return d.Series, d.Fits
}

func runFig6(g *Graph) (any, error) {
	f := g.Frozen()
	// One job per (snapshot, band), in (snapshot, Fig6Bands) order.
	bands := g.in.Params.Fig6Bands
	series := make([]correlate.Series, len(g.in.Study.Snapshots)*len(bands))
	fits := make([]stats.TemporalFit, len(series))
	oks := make([]bool, len(series))
	g.each(len(series), func(j int) {
		s, err := f.Temporal(j/len(bands), bands[j%len(bands)])
		if err != nil {
			return
		}
		series[j], fits[j], oks[j] = s, s.Fit(), true
	})
	var d fig6Data
	for j, ok := range oks {
		if ok {
			d.Series = append(d.Series, series[j])
			d.Fits = append(d.Fits, fits[j])
		}
	}
	return d, nil
}

// Fig7And8 computes the per-band modified-Cauchy parameter sweeps for
// every snapshot: Alpha per band (Figure 7) and one-month drop 1/(β+1)
// per band (Figure 8). The (snapshot, band) grid-search fits — the
// dominant post-capture cost — run concurrently on the shared worker
// pool; results assemble in SweepBands order, so the output does not
// depend on the worker count.
func (g *Graph) Fig7And8() [][]correlate.BandFit {
	v, _ := g.get(Fig7Fig8) // cannot fail
	return v.([][]correlate.BandFit)
}

func runFig7And8(g *Graph) (any, error) {
	f := g.Frozen()
	nSnaps := len(g.in.Study.Snapshots)
	minSources := g.in.Params.MinBandSources
	out := make([][]correlate.BandFit, nSnaps)

	// One job per (snapshot, band), enumerated in (snapshot, ascending
	// band) order.
	type fitJob struct{ si, band int }
	var jobs []fitJob
	for si := 0; si < nSnaps; si++ {
		for _, band := range f.SweepBands(si, minSources) {
			jobs = append(jobs, fitJob{si: si, band: band})
		}
	}
	// A band SweepBands names holds sources, so every FitBand succeeds.
	fits := make([]correlate.BandFit, len(jobs))
	g.each(len(jobs), func(j int) {
		fits[j], _ = f.FitBand(jobs[j].si, jobs[j].band)
	})
	for i := 0; i < nSnaps; i++ {
		// Capacity for every fitted band.
		out[i] = make([]correlate.BandFit, 0, len(f.SweepBands(i, minSources)))
	}
	for j := range jobs {
		out[jobs[j].si] = append(out[jobs[j].si], fits[j])
	}
	return out, nil
}
