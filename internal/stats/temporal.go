package stats

import "math"

// temporal.go implements the three temporal-correlation models of the
// paper's Figure 5 and the fitting procedure used throughout Figures
// 5-8: candidate curves are normalized to the peak of the data and the
// parameters minimizing the ‖·‖½ norm of the residual are selected.

// TemporalModel is a normalized correlation-decay shape: Eval(0) == 1 and
// Eval decreases with |dt| (dt measured in months in the paper).
type TemporalModel interface {
	Name() string
	Eval(dt float64) float64
}

// ModifiedCauchy is the paper's f(t) ∝ β/(β + |t-t0|^α).
type ModifiedCauchy struct {
	Alpha float64 // exponent α > 0
	Beta  float64 // scale β > 0
}

// Name implements TemporalModel.
func (m ModifiedCauchy) Name() string { return "modified-cauchy" }

// Eval implements TemporalModel.
func (m ModifiedCauchy) Eval(dt float64) float64 {
	return m.Beta / (m.Beta + math.Pow(math.Abs(dt), m.Alpha))
}

// OneMonthDrop returns 1/(β+1), the relative drop from the peak after one
// month, the quantity of the paper's Figure 8.
func (m ModifiedCauchy) OneMonthDrop() float64 { return 1 / (m.Beta + 1) }

// Cauchy is the standard Cauchy (Lorentzian) shape γ²/(γ² + dt²), the
// α = 2, β = γ² special case of ModifiedCauchy.
type Cauchy struct {
	Gamma float64
}

// Name implements TemporalModel.
func (c Cauchy) Name() string { return "cauchy" }

// Eval implements TemporalModel.
func (c Cauchy) Eval(dt float64) float64 {
	g2 := c.Gamma * c.Gamma
	return g2 / (g2 + dt*dt)
}

// Gaussian is the normal shape exp(-dt² / 2σ²).
type Gaussian struct {
	Sigma float64
}

// Name implements TemporalModel.
func (g Gaussian) Name() string { return "gaussian" }

// Eval implements TemporalModel.
func (g Gaussian) Eval(dt float64) float64 {
	return math.Exp(-dt * dt / (2 * g.Sigma * g.Sigma))
}

// TemporalFit is the result of fitting a model to a correlation series.
type TemporalFit struct {
	Model    TemporalModel
	Peak     float64 // normalization: the maximum of the data series
	Residual float64 // ‖data - peak·model‖½
}

// Curve evaluates the fitted (denormalized) model at each dt.
func (f TemporalFit) Curve(dts []float64) []float64 {
	out := make([]float64, len(dts))
	for i, dt := range dts {
		out[i] = f.Peak * f.Model.Eval(dt)
	}
	return out
}

func peakOf(values []float64) float64 {
	p := 0.0
	for _, v := range values {
		if v > p {
			p = v
		}
	}
	return p
}

// residualPNorm is the p-norm (Σ |values_i − peak·model_i|^p)^(1/p) in
// one pass — the inner loop of every grid search in this file, called
// thousands of times per fit, so it materializes no intermediate
// slices. Generic over the model so concrete shapes stay unboxed.
//
// For the paper's p = ½ a term is math.Sqrt(d), not math.Pow(d, ½). Pow
// returns Sqrt(d) for every d ≥ +0, which an Abs always is; a NaN d
// gives NaN either way (the payload may differ), and the closing Pow
// returns the one NaN for any NaN sum. So the norm is bit-identical to
// the Pow form (FuzzHalfNormKernel). The branch is written out in each
// kernel: a helper holding the Pow call does not inline, and that call
// cost FitModifiedCauchy ~17 % (2 vCPU amd64).
func residualPNorm[M TemporalModel](dts, values []float64, peak float64, m M, p float64) float64 {
	if p <= 0 {
		panic("stats: PNorm requires p > 0")
	}
	var s float64
	for i, dt := range dts {
		d := math.Abs(values[i] - peak*m.Eval(dt))
		if p == 0.5 {
			s += math.Sqrt(d)
		} else {
			s += math.Pow(d, p)
		}
	}
	return math.Pow(s, 1/p)
}

func residualFor[M TemporalModel](dts, values []float64, peak float64, m M) float64 {
	return residualPNorm(dts, values, peak, m, 0.5)
}

// FitModifiedCauchy fits α and β by grid search, normalizing the model to
// the data peak per the paper. dts are the time offsets t - t0 (months),
// values the measured correlation fractions.
func FitModifiedCauchy(dts, values []float64) TemporalFit {
	return FitModifiedCauchyNorm(dts, values, 0.5)
}

// FitModifiedCauchyNorm is FitModifiedCauchy under an arbitrary fitting
// p-norm; the paper uses p = 1/2, and the A2 ablation compares against
// p = 1 and p = 2.
//
// The model is separable: |dt|^α does not depend on β, and gridSearch2
// walks β inside α, so the loss keeps the powers of the α it was last
// called with and each β costs a divide and, at p = ½, a square root
// per point. Every operation of residualPNorm over ModifiedCauchy.Eval
// runs in the same order on the same operands, so the fit is
// bit-identical to it, and so to the Pow form (see residualPNorm).
func FitModifiedCauchyNorm(dts, values []float64, p float64) TemporalFit {
	if p <= 0 {
		panic("stats: PNorm requires p > 0")
	}
	peak := peakOf(values)
	pows, powsOf := make([]float64, len(dts)), math.NaN()
	loss := func(a, b float64) float64 {
		if a != powsOf {
			for i, dt := range dts {
				pows[i] = math.Pow(math.Abs(dt), a)
			}
			powsOf = a
		}
		var s float64
		for i, tp := range pows {
			d := math.Abs(values[i] - peak*(b/(b+tp)))
			if p == 0.5 {
				s += math.Sqrt(d)
			} else {
				s += math.Pow(d, p)
			}
		}
		return math.Pow(s, 1/p)
	}
	a, b, r := gridSearch2(
		Range{Lo: 0.05, Hi: 2.0},
		Range{Lo: 0.01, Hi: 100.0, Log: true},
		50, loss)
	return TemporalFit{Model: ModifiedCauchy{Alpha: a, Beta: b}, Peak: peak, Residual: r}
}

// fitCauchy fits the standard Cauchy scale γ.
func fitCauchy(dts, values []float64) TemporalFit {
	peak := peakOf(values)
	g, r := gridSearch1(Range{Lo: 0.05, Hi: 50, Log: true}, 200, func(g float64) float64 {
		return residualFor(dts, values, peak, Cauchy{Gamma: g})
	})
	return TemporalFit{Model: Cauchy{Gamma: g}, Peak: peak, Residual: r}
}

// fitGaussian fits the normal width σ.
func fitGaussian(dts, values []float64) TemporalFit {
	peak := peakOf(values)
	s, r := gridSearch1(Range{Lo: 0.05, Hi: 50, Log: true}, 200, func(s float64) float64 {
		return residualFor(dts, values, peak, Gaussian{Sigma: s})
	})
	return TemporalFit{Model: Gaussian{Sigma: s}, Peak: peak, Residual: r}
}

// FitAllTemporal fits all three model families (the comparison of the
// paper's Figure 5) and returns them keyed by model name.
func FitAllTemporal(dts, values []float64) map[string]TemporalFit {
	return map[string]TemporalFit{
		"modified-cauchy": FitModifiedCauchy(dts, values),
		"cauchy":          fitCauchy(dts, values),
		"gaussian":        fitGaussian(dts, values),
	}
}
