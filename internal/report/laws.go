package report

// laws.go is the paper's claims as one table. Each law reads the
// artifacts above, measures one or more values, and holds every value
// to one bound; cmd/experiments prints the table, a scenario's law
// assertion names a row by id, and core's tests gate it across seeds.

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/correlate"
	"repro/internal/stats"
)

// minLawSources is the sample-size rule, stated once: a law reads a
// band, or a pool of bands, only when it holds at least this many
// telescope sources, and a law left with nothing to read says n/a
// rather than fail. At 25 sources a band's co-observed fraction is
// known to within ±0.2 at 95 % (1.96 · 0.5 / √25); above 30, default
// scale loses the bands around the generator's drop dip on some seeds.
const minLawSources = 25

// Bound is a law's pass rule: every value the law measures lies in
// [Min, Max].
type Bound struct{ Min, Max float64 }

func (b Bound) String() string {
	if b.Min == b.Max {
		return fmt.Sprintf("= %g", b.Min)
	}
	return fmt.Sprintf("in [%g, %g]", b.Min, b.Max)
}

// Verdict is a law's outcome on one study.
type Verdict string

const (
	Pass Verdict = "PASS"
	Fail Verdict = "FAIL"
	NA   Verdict = "n/a" // the law found nothing the sample-size rule lets it read
)

// Law is one row of the table: what the paper claims, how the study
// measures it, and the bound every measured value must meet.
type Law struct {
	ID, Claim string
	Rule      Bound
	// measure returns the values the rule judges (none: n/a) and a
	// readable account of them.
	measure func(g *Graph, p Params) (values []float64, measured string, err error)
}

// LawResult is one law judged on one study.
type LawResult struct {
	Law
	Measured string
	Verdict  Verdict
}

// Laws returns the table in the paper's order. A caller may change a
// row's Rule before Judge; what the law measures stays the table's.
func Laws() []Law {
	return []Law{
		{"T1", "one Table I row per honeyfarm month, a CAIDA entry in every snapshot month", Bound{0, 0}, measureT1},
		{"T2", "Table II valid packets == NV on anonymized matrices", Bound{0, 0}, measureT2},
		{"F3", "Zipf-Mandelbrot alpha ~ 1.76 (paper)", Bound{1.4, 2.2}, measureF3},
		{"F4a", "bright sources (d > sqrt(NV)) nearly always co-observed", Bound{0.6, 1}, measureF4a},
		{"F4b", "faint visibility proportional to log2(d)", Bound{0.85, 1}, measureF4b},
		{"F5", "modified Cauchy best of the three families", Bound{0, 1}, measureF5},
		{"F6", "co-observation peaks at the snapshot month and decays away from it", Bound{0, 1}, measureF6},
		{"F7", "typical modified-Cauchy alpha ~ 1", Bound{0.6, 1.5}, measureF7},
		{"F8a", "typical one-month drop of 10-70 % (paper: above 20 %)", Bound{0.1, 0.7}, measureF8a},
		{"F8b", "one-month drop maximal near the generator's dip (paper: d ~ 10^3)", Bound{-3, 3}, measureF8b},
	}
}

// Judge measures one law on the graph's study and holds every value to
// its Rule. An artifact the law cannot compute fails it.
func (g *Graph) Judge(l Law) LawResult {
	g.inMu.RLock()
	p := g.in.Params
	g.inMu.RUnlock()
	values, measured, err := l.measure(g, p)
	r := LawResult{Law: l, Measured: measured, Verdict: NA}
	switch {
	case err != nil:
		r.Measured, r.Verdict = err.Error(), Fail
	case slices.ContainsFunc(values, func(x float64) bool { return !(x >= l.Rule.Min && x <= l.Rule.Max) }):
		r.Verdict = Fail
	case len(values) > 0:
		r.Verdict = Pass
	}
	return r
}

// populated is the sample-size rule's one reader.
func populated(sources int) bool { return sources >= minLawSources }

// spread accounts for a law that measures one value per snapshot or
// curve.
func spread(values []float64, what, per string) string {
	if len(values) == 0 {
		return "no " + per
	}
	return fmt.Sprintf("%s in [%.3g, %.3g] over %d %s", what, slices.Min(values), slices.Max(values), len(values), per)
}

func measureT1(g *Graph, p Params) ([]float64, string, error) {
	rows := g.TableI()
	snapRows := 0
	for _, r := range rows {
		if r.CAIDAStart != "" {
			snapRows++
		}
	}
	// A Table I row is a month, so snapshots that share one are one
	// CAIDA entry.
	months := make(map[int]bool)
	for _, m := range p.SnapshotMonths {
		months[int(math.Floor(m))] = true
	}
	values := []float64{float64(len(rows) - p.Months), float64(snapRows - len(months))}
	return values, fmt.Sprintf("%d of %d months, %d of %d snapshot months",
		len(rows), p.Months, snapRows, len(months)), nil
}

func measureT2(g *Graph, p Params) ([]float64, string, error) {
	var excess []float64
	for _, q := range g.TableII() {
		excess = append(excess, q.ValidPackets-float64(p.NV))
	}
	return excess, spread(excess, "valid packets - NV", "windows"), nil
}

func measureF3(g *Graph, _ Params) ([]float64, string, error) {
	var alphas []float64
	for _, s := range g.Fig3() {
		alphas = append(alphas, s.Alpha)
	}
	return alphas, spread(alphas, "alpha", "snapshots"), nil
}

// bright reports whether a band lies at or above the paper's bright
// split, d = sqrt(NV).
func bright(band, nv int) bool { return float64(band) >= math.Log2(float64(nv))/2 }

// measureF4a pools each snapshot's bright bands: the tail is thin, so a
// single bright band rarely holds a sample on its own.
func measureF4a(g *Graph, p Params) ([]float64, string, error) {
	series, err := g.Fig4()
	var pooled []float64
	for _, s := range series {
		matched, total := 0, 0
		for _, pt := range s.Points {
			if bright(pt.Band, p.NV) {
				matched, total = matched+pt.Matched, total+pt.Sources
			}
		}
		if populated(total) {
			pooled = append(pooled, float64(matched)/float64(total))
		}
	}
	return pooled, spread(pooled, "pooled bright fraction", fmt.Sprintf("snapshots of >= %d bright sources", minLawSources)), err
}

func measureF4b(g *Graph, p Params) ([]float64, string, error) {
	series, err := g.Fig4()
	var logd, frac []float64
	for _, s := range series {
		for _, pt := range s.Points {
			if !bright(pt.Band, p.NV) && populated(pt.Sources) {
				logd, frac = append(logd, float64(pt.Band)), append(frac, pt.Fraction)
			}
		}
	}
	if len(logd) < 3 {
		return nil, fmt.Sprintf("%d populated faint bands, and a correlation needs 3", len(logd)), err
	}
	r := stats.Pearson(logd, frac)
	return []float64{r}, fmt.Sprintf("Pearson(log2 d, fraction) = %.3f over %d band points", r, len(logd)), err
}

// measureF5 reads Figure 5 whatever its band holds: the modified Cauchy
// nests the Cauchy (α = 2, β = γ²), so losing to it on any curve is a
// fitter defect, not noise.
func measureF5(g *Graph, _ Params) ([]float64, string, error) {
	_, fits, err := g.Fig5()
	if err != nil {
		return nil, "", err
	}
	mc, ca, ga := fits["modified-cauchy"].Residual, fits["cauchy"].Residual, fits["gaussian"].Residual
	ratio := mc / math.Min(ca, ga)
	return []float64{ratio},
		fmt.Sprintf("MC residual / best other = %.3f (MC %.2f, Cauchy %.2f, Gaussian %.2f)", ratio, mc, ca, ga), nil
}

// Figure 6's decay contrast: the mean co-observed fraction within
// nearMonths of the snapshot minus the mean at farMonths or beyond.
const nearMonths, farMonths = 1.5, 4

func measureF6(g *Graph, _ Params) ([]float64, string, error) {
	all, _ := g.Fig6()
	var contrast []float64
	for _, s := range all {
		var near, far []float64
		for i, v := range s.Fraction {
			switch a := math.Abs(s.Dt[i]); {
			case a <= nearMonths:
				near = append(near, v)
			case a >= farMonths:
				far = append(far, v)
			}
		}
		if populated(s.Sources) && len(near) > 0 && len(far) > 0 {
			contrast = append(contrast, stats.Summarize(near).Mean-stats.Summarize(far).Mean)
		}
	}
	return contrast, spread(contrast, "near-minus-far fraction", fmt.Sprintf("curves of >= %d sources", minLawSources)), nil
}

// populatedFits is every Figure 7/8 band fit the sample-size rule lets
// a law read.
func (g *Graph) populatedFits() []correlate.BandFit {
	var out []correlate.BandFit
	for _, sweep := range g.Fig7And8() {
		for _, f := range sweep {
			if populated(f.Sources) {
				out = append(out, f)
			}
		}
	}
	return out
}

// meanFit reads the mean of one fitted parameter over the populated
// band fits.
func meanFit(g *Graph, what string, param func(correlate.BandFit) float64) ([]float64, string, error) {
	var xs []float64
	for _, f := range g.populatedFits() {
		xs = append(xs, param(f))
	}
	if len(xs) == 0 {
		return nil, fmt.Sprintf("no band fit of >= %d sources", minLawSources), nil
	}
	mean := stats.Summarize(xs).Mean
	return []float64{mean}, fmt.Sprintf("mean %s = %.2f over %d band fits", what, mean, len(xs)), nil
}

func measureF7(g *Graph, p Params) ([]float64, string, error) {
	values, measured, err := meanFit(g, "alpha", func(f correlate.BandFit) float64 { return f.Alpha })
	return values, fmt.Sprintf("%s (generator alpha* = %g)", measured, p.AlphaStar), err
}

func measureF8a(g *Graph, _ Params) ([]float64, string, error) {
	return meanFit(g, "one-month drop", func(f correlate.BandFit) float64 { return f.Drop })
}

// measureF8b reads the band of the largest one-month drop, as octaves
// from the generator's dip. A maximum is only seen from both sides, so
// the law needs a populated band at or above the dip.
func measureF8b(g *Graph, p Params) ([]float64, string, error) {
	best, top := correlate.BandFit{}, -1
	for _, f := range g.populatedFits() {
		top = max(top, f.Band)
		if f.Drop > best.Drop {
			best = f
		}
	}
	if float64(top) < math.Floor(p.DipLog2) {
		return nil, fmt.Sprintf("no populated band reaches the dip at 2^%g", p.DipLog2), nil
	}
	off := float64(best.Band) - p.DipLog2
	return []float64{off}, fmt.Sprintf("max drop %.2f at band 2^%d, %+g octaves from the dip at 2^%g",
		best.Drop, best.Band, off, p.DipLog2), nil
}
