package stats

import (
	"math"
	"math/rand"
)

// ZipfMandelbrot is the two-parameter heavy-tail distribution
//
//	p(d) ∝ 1/(d + δ)^α ,  d = 1, 2, ..., DMax
//
// that the paper fits to the CAIDA source-packet degree distribution
// (Figure 3 reports α ≈ 1.76, δ ≈ 3.93).
type ZipfMandelbrot struct {
	Alpha float64 // exponent α > 1
	Delta float64 // offset δ >= 0
	DMax  float64 // truncation; degrees above are never produced
}

// PaperZM returns the distribution with the paper's Figure 3 parameters.
func PaperZM(dmax float64) ZipfMandelbrot {
	return ZipfMandelbrot{Alpha: 1.76, Delta: 3.93, DMax: dmax}
}

// quantile inverts the continuous-relaxation CDF — the normalized
// integral of (t+δ)^(-α) over [1, DMax] — at u in [0,1). The continuous
// form admits this closed-form inverse; discretization by rounding in
// Sample preserves the power-law tail.
func (z ZipfMandelbrot) quantile(u float64) float64 {
	a, d := z.Alpha, z.Delta
	g1 := math.Pow(1+d, 1-a)
	gm := math.Pow(z.DMax+d, 1-a)
	gx := g1 - u*(g1-gm)
	return math.Pow(gx, 1/(1-a)) - d
}

// Sample draws one degree value in [1, DMax].
func (z ZipfMandelbrot) Sample(rng *rand.Rand) float64 {
	x := z.quantile(rng.Float64())
	v := math.Round(x)
	if v < 1 {
		v = 1
	}
	if v > z.DMax {
		v = z.DMax
	}
	return v
}

// FitZipfMandelbrot recovers (α, δ) from a binned empirical degree
// distribution by grid search minimizing the paper's ‖·‖½ norm between
// the empirical and model per-bin probabilities.
//
// The model's mass in a bin is the difference of the continuous CDF
// (g(1) − g(x)) / (g(1) − g(DMax)), g(t) = (t+δ)^(1−α), at its edges.
// The loss hoists what does not change: the bin edges are fixed per
// fit, and g(1) and g(1) − g(DMax) per (α, δ), so a bin costs one Pow
// for its edge and one for the norm, and nothing is allocated per grid
// point. Every operation runs on the same operands in the same order as
// the un-hoisted form the tests keep, so the fit is bit-identical to it.
func FitZipfMandelbrot(b *Binned, dmax float64) (alpha, delta, residual float64) {
	emp := b.Prob()
	maxBin := len(emp) - 1
	if maxBin < 1 {
		return 0, 0, math.Inf(1)
	}
	edges := make([]float64, len(emp))
	for i := range edges {
		edges[i] = math.Pow(2, float64(i))
		if edges[i] > dmax {
			edges[i] = dmax
		}
	}
	loss := func(a, d float64) float64 {
		g1 := math.Pow(1+d, 1-a)
		den := g1 - math.Pow(dmax+d, 1-a)
		var s, prev float64
		for i, hi := range edges {
			c := (g1 - math.Pow(hi+d, 1-a)) / den
			s += math.Pow(math.Abs(emp[i]-(c-prev)), 0.5)
			prev = c
		}
		return math.Pow(s, 1/0.5)
	}
	return gridSearch2(
		Range{Lo: 1.05, Hi: 3.0},
		Range{Lo: 0.0, Hi: 20.0},
		40, loss)
}
