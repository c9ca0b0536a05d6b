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

// cdfCont evaluates the continuous-relaxation CDF at x in [1, DMax]:
// the normalized integral of (t+δ)^(-α). The continuous form admits a
// closed-form inverse, which the sampler uses; discretization by rounding
// preserves the power-law tail.
func (z ZipfMandelbrot) cdfCont(x float64) float64 {
	a, d := z.Alpha, z.Delta
	g := func(t float64) float64 { return math.Pow(t+d, 1-a) }
	num := g(1) - g(x)
	den := g(1) - g(z.DMax)
	return num / den
}

// Quantile inverts the continuous CDF: Quantile(u) for u in [0,1).
func (z ZipfMandelbrot) Quantile(u float64) float64 {
	a, d := z.Alpha, z.Delta
	g1 := math.Pow(1+d, 1-a)
	gm := math.Pow(z.DMax+d, 1-a)
	gx := g1 - u*(g1-gm)
	return math.Pow(gx, 1/(1-a)) - d
}

// Sample draws one degree value in [1, DMax].
func (z ZipfMandelbrot) Sample(rng *rand.Rand) float64 {
	x := z.Quantile(rng.Float64())
	v := math.Round(x)
	if v < 1 {
		v = 1
	}
	if v > z.DMax {
		v = z.DMax
	}
	return v
}

// BinnedProb returns the model's probability mass per binary logarithmic
// bin, up to bin maxBin inclusive, computed from the continuous CDF so it
// is directly comparable to Binned.Prob() of a sample drawn from the
// model.
func (z ZipfMandelbrot) BinnedProb(maxBin int) []float64 {
	out := make([]float64, maxBin+1)
	prev := 0.0
	for i := 0; i <= maxBin; i++ {
		hi := math.Pow(2, float64(i))
		if hi > z.DMax {
			hi = z.DMax
		}
		c := z.cdfCont(hi)
		out[i] = c - prev
		prev = c
	}
	return out
}

// FitZipfMandelbrot recovers (α, δ) from a binned empirical degree
// distribution by grid search minimizing the paper's ‖·‖½ norm between
// the empirical and model per-bin probabilities.
//
// The loss is HalfNorm(Residuals(emp, BinnedProb(maxBin))) with what
// does not change hoisted: the bin edges are fixed per fit, and g(1)
// and g(1) − g(DMax) of cdfCont per (α, δ), so a bin costs one Pow for
// its edge and one for the norm, and nothing is allocated per grid
// point. Every operation runs on the same operands in the same order,
// so the fit is bit-identical to the un-hoisted form.
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
	return GridSearch2(
		Range{Lo: 1.05, Hi: 3.0},
		Range{Lo: 0.0, Hi: 20.0},
		40, loss)
}
