package correlate

import (
	"math"

	"repro/internal/stats"
)

// background.go estimates and removes the month-independent background
// component of the temporal-correlation curves. The paper observes that
// "the correlation between the CAIDA and GreyNoise sources drops quickly
// and then levels off to a background level"; isolating the decaying
// (beam) component sharpens the modified-Cauchy parameter estimates for
// faint bands whose curves ride on a large floor.

// Background estimates the floor of a series as the mean of the points
// at least minDt months from the snapshot. Returns 0 (and false) when no
// point is that far away.
func (s Series) Background(minDt float64) (float64, bool) {
	var far []float64
	for i, dt := range s.Dt {
		if math.Abs(dt) >= minDt {
			far = append(far, s.Fraction[i])
		}
	}
	if len(far) == 0 {
		return 0, false
	}
	return stats.Summarize(far).Mean, true
}

// SubtractBackground returns a copy of the series with the floor
// removed and negative residuals clamped to zero.
func (s Series) SubtractBackground(floor float64) Series {
	out := s
	out.Fraction = make([]float64, len(s.Fraction))
	for i, v := range s.Fraction {
		if v > floor {
			out.Fraction[i] = v - floor
		}
	}
	return out
}

// FitExcess estimates the background from the far tail (>= minDt
// months), subtracts it, and fits the modified Cauchy to the excess.
// When the series has no far tail, it falls back to the plain fit.
func (s Series) FitExcess(minDt float64) (stats.TemporalFit, float64) {
	floor, ok := s.Background(minDt)
	if !ok {
		return s.Fit(), 0
	}
	return s.SubtractBackground(floor).Fit(), floor
}

// WilsonBand attaches a 95% Wilson interval to every point of the
// series, using the band population as the trial count.
func (s Series) WilsonBand() (lo, hi []float64) {
	lo = make([]float64, len(s.Fraction))
	hi = make([]float64, len(s.Fraction))
	for i, f := range s.Fraction {
		k := int(math.Round(f * float64(s.Sources)))
		lo[i], hi[i] = stats.Wilson95(k, s.Sources)
	}
	return lo, hi
}
