package stats

import (
	"math"
	"math/rand"
	"testing"
)

// binnedProbRef is the model's probability mass per binary logarithmic
// bin, up to bin maxBin inclusive, from the continuous-relaxation CDF
// (the normalized integral of (t+δ)^(-α)), so it is directly comparable
// to Binned.Prob() of a sample drawn from the model.
func binnedProbRef(z ZipfMandelbrot, maxBin int) []float64 {
	a, d := z.Alpha, z.Delta
	g := func(t float64) float64 { return math.Pow(t+d, 1-a) }
	out := make([]float64, maxBin+1)
	prev := 0.0
	for i := 0; i <= maxBin; i++ {
		hi := math.Pow(2, float64(i))
		if hi > z.DMax {
			hi = z.DMax
		}
		c := (g(1) - g(hi)) / (g(1) - g(z.DMax))
		out[i] = c - prev
		prev = c
	}
	return out
}

// halfNormRef is the paper's fitting norm of data − model:
// (Σ |data_i − model_i|^½)².
func halfNormRef(data, model []float64) float64 {
	var s float64
	for i := range data {
		s += math.Pow(math.Abs(data[i]-model[i]), 0.5)
	}
	return math.Pow(s, 1/0.5)
}

// fitZipfMandelbrotRef is FitZipfMandelbrot before its loss was
// hoisted: the model's binned probabilities and the residuals rebuilt
// at every grid point.
func fitZipfMandelbrotRef(b *Binned, dmax float64) (alpha, delta, residual float64) {
	emp := b.Prob()
	maxBin := len(emp) - 1
	if maxBin < 1 {
		return 0, 0, math.Inf(1)
	}
	loss := func(a, d float64) float64 {
		return halfNormRef(emp, binnedProbRef(ZipfMandelbrot{Alpha: a, Delta: d, DMax: dmax}, maxBin))
	}
	return gridSearch2(
		Range{Lo: 1.05, Hi: 3.0},
		Range{Lo: 0.0, Hi: 20.0},
		40, loss)
}

func zipfSample(z ZipfMandelbrot, n int, seed int64) *Binned {
	rng := rand.New(rand.NewSource(seed))
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = z.Sample(rng)
	}
	return LogBin(vals)
}

// TestFitZipfMandelbrotBitIdentical pins the hoisted loss to the
// un-hoisted one bit for bit. A one-ulp drift would move Fig 3's
// golden (α, δ).
func TestFitZipfMandelbrotBitIdentical(t *testing.T) {
	for _, dmax := range []float64{1 << 14, 1 << 16, 1 << 18} {
		for _, z := range []ZipfMandelbrot{PaperZM(dmax), {Alpha: 1.2, Delta: 0.4, DMax: dmax}, {Alpha: 2.6, Delta: 17, DMax: dmax}} {
			b := zipfSample(z, 20000, int64(dmax))
			// The study fits against NV, which is not the sample's own
			// largest degree: try the edge clamp on both sides of it.
			for _, fitMax := range []float64{dmax, dmax / 8, 3 * dmax} {
				a, d, r := FitZipfMandelbrot(b, fitMax)
				ra, rd, rr := fitZipfMandelbrotRef(b, fitMax)
				if math.Float64bits(a) != math.Float64bits(ra) ||
					math.Float64bits(d) != math.Float64bits(rd) ||
					math.Float64bits(r) != math.Float64bits(rr) {
					t.Errorf("%+v fit to %g: (%v, %v, %v), reference (%v, %v, %v)", z, fitMax, a, d, r, ra, rd, rr)
				}
			}
		}
	}
}

func BenchmarkFitZipfMandelbrot(b *testing.B) {
	binned := zipfSample(PaperZM(1<<16), 20000, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		FitZipfMandelbrot(binned, 1<<16)
	}
}
