// Package stats implements the statistical machinery of the paper:
// binary logarithmic binning of heavy-tailed degree distributions,
// differential cumulative probabilities, Zipf-Mandelbrot / Gaussian /
// Cauchy / modified-Cauchy models, the fractional-norm grid-search
// fitting procedure, and heavy-tail samplers for the radiation generator.
package stats

import (
	"math"
)

// Binned is a degree distribution pooled into binary logarithmic bins
// d_i = 2^i, following Clauset-Shalizi-Newman [48] as the paper does.
// Bin i covers degrees d with 2^(i-1) < d <= 2^i (bin 0 covers d == 1).
type Binned struct {
	Centers []float64 // d_i = 2^i for each bin i = 0..len-1
	Counts  []float64 // n_t(d_i): number of observations in the bin
	Total   float64   // sum of Counts
}

// logBinIndex returns the bin index for degree d >= 1: ceil(log2(d)).
func logBinIndex(d float64) int {
	if d <= 1 {
		return 0
	}
	return int(math.Ceil(math.Log2(d) - 1e-12))
}

// LogBin pools the given degree values (each >= 1; smaller values are
// ignored) into binary logarithmic bins.
func LogBin(values []float64) *Binned {
	maxBin := -1
	for _, v := range values {
		if v < 1 {
			continue
		}
		if b := logBinIndex(v); b > maxBin {
			maxBin = b
		}
	}
	if maxBin < 0 {
		return &Binned{}
	}
	b := &Binned{
		Centers: make([]float64, maxBin+1),
		Counts:  make([]float64, maxBin+1),
	}
	for i := range b.Centers {
		b.Centers[i] = math.Pow(2, float64(i))
	}
	for _, v := range values {
		if v < 1 {
			continue
		}
		b.Counts[logBinIndex(v)]++
		b.Total++
	}
	return b
}

// Prob returns the per-bin probabilities D_t(d_i) = P_t(d_i) - P_t(d_i-1),
// i.e. the normalized histogram over logarithmic bins (the quantity
// plotted in the paper's Figure 3).
func (b *Binned) Prob() []float64 {
	out := make([]float64, len(b.Counts))
	if b.Total == 0 {
		return out
	}
	for i, c := range b.Counts {
		out[i] = c / b.Total
	}
	return out
}

// BandIndex identifies the brightness band [2^i, 2^(i+1)) that the
// paper's Figures 5-8 slice sources into. It differs from logBinIndex in
// using half-open lower-inclusive ranges, matching "d <= source packets
// < 2d" in Figure 6's caption. A count that is not a finite number >= 1
// (below 1, NaN, or infinite) is in no band: -1.
func BandIndex(d float64) int {
	if !(d >= 1) || math.IsInf(d, 1) {
		return -1
	}
	_, exp := math.Frexp(d) // d = frac * 2^exp, frac in [1/2, 1)
	return exp - 1
}

// BandLow returns the lower edge 2^i of band i.
func BandLow(i int) float64 { return math.Pow(2, float64(i)) }

// Summary holds basic moments of a sample.
type Summary struct {
	N        int
	Mean     float64
	Variance float64
	Min, Max float64
}

// Summarize computes sample moments in one pass (Welford's algorithm).
func Summarize(values []float64) Summary {
	s := Summary{Min: math.Inf(1), Max: math.Inf(-1)}
	var m, m2 float64
	for _, v := range values {
		s.N++
		delta := v - m
		m += delta / float64(s.N)
		m2 += delta * (v - m)
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	if s.N == 0 {
		return Summary{}
	}
	s.Mean = m
	if s.N > 1 {
		s.Variance = m2 / float64(s.N-1)
	}
	return s
}
