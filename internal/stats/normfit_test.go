package stats

import (
	"math"
	"testing"
)

func TestFitModifiedCauchyNormVariants(t *testing.T) {
	truth := ModifiedCauchy{Alpha: 1, Beta: 4}
	dts := make([]float64, 15)
	vals := make([]float64, 15)
	for i := range dts {
		dts[i] = float64(i - 4)
		vals[i] = 0.8 * truth.Eval(dts[i])
	}
	// On clean data every norm recovers the truth.
	for _, p := range []float64{0.5, 1, 2} {
		fit := FitModifiedCauchyNorm(dts, vals, p)
		m := fit.Model.(ModifiedCauchy)
		if math.Abs(m.Alpha-1) > 0.1 || math.Abs(m.Beta-4)/4 > 0.25 {
			t.Errorf("p=%g recovered (%.2f, %.2f), want (1, 4)", p, m.Alpha, m.Beta)
		}
	}
}

func TestFractionalNormRobustToOutlier(t *testing.T) {
	// One grossly corrupted month: the half-norm fit must stay closer to
	// the truth than the L2 fit.
	truth := ModifiedCauchy{Alpha: 1, Beta: 4}
	dts := make([]float64, 15)
	vals := make([]float64, 15)
	for i := range dts {
		dts[i] = float64(i - 4)
		vals[i] = 0.8 * truth.Eval(dts[i])
	}
	vals[12] += 0.5 // corrupted far-tail month

	errOf := func(p float64) float64 {
		fit := FitModifiedCauchyNorm(dts, vals, p)
		m := fit.Model.(ModifiedCauchy)
		return math.Abs(m.Alpha-truth.Alpha) + math.Abs(m.Beta-truth.Beta)/truth.Beta
	}
	if half, l2 := errOf(0.5), errOf(2); half > l2+1e-9 {
		t.Errorf("half-norm error %g exceeds L2 error %g under an outlier", half, l2)
	}
}

func TestFitResidualConsistency(t *testing.T) {
	// The reported residual must equal the half-norm of the residuals of
	// the returned curve.
	truth := ModifiedCauchy{Alpha: 0.8, Beta: 2}
	dts := []float64{-3, -2, -1, 0, 1, 2, 3, 4, 5}
	vals := make([]float64, len(dts))
	for i, dt := range dts {
		vals[i] = 0.7*truth.Eval(dt) + 0.02*float64(i%3)
	}
	fit := FitModifiedCauchy(dts, vals)
	recomputed := halfNormRef(vals, fit.Curve(dts))
	if math.Abs(recomputed-fit.Residual) > 1e-9 {
		t.Errorf("residual %g != recomputed %g", fit.Residual, recomputed)
	}
}
