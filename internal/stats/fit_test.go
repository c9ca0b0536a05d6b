package stats

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// noModel predicts nothing, so the residual norm of values against it
// is the norm of the values: how these tests reach the one p-norm the
// fits minimise (residualPNorm).
type noModel struct{}

func (noModel) Name() string         { return "none" }
func (noModel) Eval(float64) float64 { return 0 }

func pNorm(xs []float64, p float64) float64 {
	return residualPNorm(make([]float64, len(xs)), xs, 1, noModel{}, p)
}

func TestPNormBasics(t *testing.T) {
	xs := []float64{3, -4}
	if got := pNorm(xs, 2); math.Abs(got-5) > 1e-12 {
		t.Errorf("L2 = %g, want 5", got)
	}
	if got := pNorm(xs, 1); math.Abs(got-7) > 1e-12 {
		t.Errorf("L1 = %g, want 7", got)
	}
	// (sqrt(3)+sqrt(4))^2 = (1.732..+2)^2
	want := math.Pow(math.Sqrt(3)+2, 2)
	if got := pNorm(xs, 0.5); math.Abs(got-want) > 1e-9 {
		t.Errorf("half norm = %g, want %g", got, want)
	}
}

func TestPNormPanicsOnBadP(t *testing.T) {
	for name, fit := range map[string]func(){
		"residualPNorm":         func() { pNorm([]float64{1}, 0) },
		"FitModifiedCauchyNorm": func() { FitModifiedCauchyNorm([]float64{0, 1}, []float64{1, 0.5}, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s(p<=0) did not panic", name)
				}
			}()
			fit()
		}()
	}
}

func TestHalfNormDampsOutliers(t *testing.T) {
	// The rationale for the paper's choice: relative to L2, the 1/2 norm
	// weighs one large residual less against many small ones.
	spike := []float64{10, 0, 0, 0}
	spread := []float64{2.5, 2.5, 2.5, 2.5}
	if pNorm(spike, 2) <= pNorm(spread, 2) {
		t.Fatal("sanity: L2 should prefer spread")
	}
	if pNorm(spike, 0.5) >= pNorm(spread, 0.5) {
		t.Error("the half norm did not prefer the concentrated residual")
	}
}

func TestRangeValues(t *testing.T) {
	lin := Range{Lo: 0, Hi: 10}.values(11)
	if lin[0] != 0 || lin[10] != 10 || lin[5] != 5 {
		t.Errorf("linear grid = %v", lin)
	}
	logv := Range{Lo: 1, Hi: 100, Log: true}.values(3)
	if math.Abs(logv[1]-10) > 1e-9 {
		t.Errorf("log grid midpoint = %g, want 10", logv[1])
	}
	single := Range{Lo: 5, Hi: 9}.values(1)
	if len(single) != 1 || single[0] != 5 {
		t.Errorf("single-point grid = %v", single)
	}
}

func TestGridSearch2Recovers(t *testing.T) {
	target := func(a, b float64) float64 {
		return math.Abs(a-1.3) + math.Abs(b-4.2)
	}
	a, b, l := gridSearch2(Range{Lo: 0, Hi: 3}, Range{Lo: 0.1, Hi: 50, Log: true}, 60, target)
	if math.Abs(a-1.3) > 0.06 || math.Abs(b-4.2) > 0.5 {
		t.Errorf("grid search found (%g, %g, loss %g)", a, b, l)
	}
}

func TestGridSearch1Recovers(t *testing.T) {
	x, _ := gridSearch1(Range{Lo: 0, Hi: 10}, 100, func(x float64) float64 {
		return (x - 7.25) * (x - 7.25)
	})
	if math.Abs(x-7.25) > 0.06 {
		t.Errorf("found %g, want 7.25", x)
	}
}

func TestZipfMandelbrotQuantileMonotone(t *testing.T) {
	z := PaperZM(1 << 20)
	prev := 0.0
	for u := 0.0; u < 1; u += 0.01 {
		q := z.quantile(u)
		if q < prev-1e-9 {
			t.Fatalf("quantile not monotone at u=%g", u)
		}
		prev = q
	}
	if q := z.quantile(0); math.Abs(q-1) > 1e-6 {
		t.Errorf("Quantile(0) = %g, want 1", q)
	}
}

func TestZipfSampleRange(t *testing.T) {
	z := PaperZM(1024)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		v := z.Sample(rng)
		if v < 1 || v > 1024 || v != math.Round(v) {
			t.Fatalf("sample %g out of range or not integral", v)
		}
	}
}

func TestZipfBinnedProbSumsToOne(t *testing.T) {
	z := PaperZM(1 << 15)
	p := binnedProbRef(z, 15)
	var s float64
	for _, x := range p {
		s += x
	}
	if math.Abs(s-1) > 1e-9 {
		t.Errorf("binned model mass = %g, want 1", s)
	}
}

func TestZipfHeavyTail(t *testing.T) {
	// Most mass at small degrees, but non-trivial tail.
	z := PaperZM(1 << 20)
	rng := rand.New(rand.NewSource(2))
	small, big := 0, 0
	for i := 0; i < 20000; i++ {
		v := z.Sample(rng)
		if v <= 2 {
			small++
		}
		if v >= 1000 {
			big++
		}
	}
	// With δ = 3.93 the head is flattened: the continuous CDF puts
	// roughly 15-20% of mass at d <= 2, far more than any single tail bin.
	if small < 2000 {
		t.Errorf("only %d/20000 samples <= 2; head too light", small)
	}
	if big == 0 {
		t.Error("no samples >= 1000; tail too light for a ZM law")
	}
}

// TestFitZipfMandelbrotRecovery is the key self-consistency check for the
// Figure 3 pipeline: samples drawn from a known ZM law must yield fitted
// parameters near the truth.
func TestFitZipfMandelbrotRecovery(t *testing.T) {
	truth := ZipfMandelbrot{Alpha: 1.76, Delta: 3.93, DMax: 1 << 22}
	rng := rand.New(rand.NewSource(3))
	vals := make([]float64, 200000)
	for i := range vals {
		vals[i] = truth.Sample(rng)
	}
	alpha, delta, res := FitZipfMandelbrot(LogBin(vals), truth.DMax)
	if math.Abs(alpha-truth.Alpha) > 0.25 {
		t.Errorf("alpha = %g (residual %g), want ~%g", alpha, res, truth.Alpha)
	}
	if math.Abs(delta-truth.Delta) > 3.0 {
		t.Errorf("delta = %g, want ~%g", delta, truth.Delta)
	}
}

func TestFitZipfEmptyInput(t *testing.T) {
	_, _, res := FitZipfMandelbrot(LogBin(nil), 1024)
	if !math.IsInf(res, 1) {
		t.Error("fit of empty distribution should report infinite residual")
	}
}

func TestModifiedCauchyShape(t *testing.T) {
	m := ModifiedCauchy{Alpha: 1, Beta: 4}
	if m.Eval(0) != 1 {
		t.Errorf("Eval(0) = %g, want 1", m.Eval(0))
	}
	if math.Abs(m.Eval(1)-4.0/5.0) > 1e-12 {
		t.Errorf("Eval(1) = %g, want 0.8", m.Eval(1))
	}
	if m.Eval(2) >= m.Eval(1) || m.Eval(-2) != m.Eval(2) {
		t.Error("modified Cauchy not symmetric-decreasing")
	}
	if math.Abs(m.OneMonthDrop()-0.2) > 1e-12 {
		t.Errorf("OneMonthDrop = %g, want 0.2", m.OneMonthDrop())
	}
}

func TestCauchyIsModifiedCauchySpecialCase(t *testing.T) {
	// Setting α = 2 and β = γ² must reproduce the standard Cauchy.
	g := 1.7
	c := Cauchy{Gamma: g}
	m := ModifiedCauchy{Alpha: 2, Beta: g * g}
	for dt := -5.0; dt <= 5; dt += 0.5 {
		if math.Abs(c.Eval(dt)-m.Eval(dt)) > 1e-12 {
			t.Fatalf("mismatch at dt=%g: %g vs %g", dt, c.Eval(dt), m.Eval(dt))
		}
	}
}

func TestGaussianShape(t *testing.T) {
	g := Gaussian{Sigma: 2}
	if g.Eval(0) != 1 {
		t.Error("Gaussian peak != 1")
	}
	if math.Abs(g.Eval(2)-math.Exp(-0.5)) > 1e-12 {
		t.Errorf("Eval(sigma) = %g, want e^-1/2", g.Eval(2))
	}
}

func TestFitModifiedCauchyRecovery(t *testing.T) {
	truth := ModifiedCauchy{Alpha: 1.0, Beta: 4.0}
	peak := 0.7
	dts := []float64{-4, -3, -2, -1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	vals := make([]float64, len(dts))
	for i, dt := range dts {
		vals[i] = peak * truth.Eval(dt)
	}
	fit := FitModifiedCauchy(dts, vals)
	m := fit.Model.(ModifiedCauchy)
	if math.Abs(m.Alpha-truth.Alpha) > 0.1 || math.Abs(m.Beta-truth.Beta)/truth.Beta > 0.2 {
		t.Errorf("recovered (α=%g, β=%g), want (1, 4); residual %g", m.Alpha, m.Beta, fit.Residual)
	}
	if math.Abs(fit.Peak-peak) > 1e-12 {
		t.Errorf("peak = %g, want %g", fit.Peak, peak)
	}
}

func TestFitModifiedCauchyNoisyRecovery(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		truth := ModifiedCauchy{Alpha: 0.5 + rng.Float64(), Beta: 1 + 9*rng.Float64()}
		dts := make([]float64, 15)
		vals := make([]float64, 15)
		for i := range dts {
			dts[i] = float64(i - 4)
			vals[i] = 0.8*truth.Eval(dts[i]) + 0.01*(rng.Float64()-0.5)
		}
		fit := FitModifiedCauchy(dts, vals)
		m := fit.Model.(ModifiedCauchy)
		// Loose bounds: noisy small-sample fit.
		return math.Abs(m.Alpha-truth.Alpha) < 0.5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestModifiedCauchyBeatsAlternativesOnOwnData reproduces the Figure 5
// comparison logic: on data generated from a modified Cauchy with α=3/4,
// the modified-Cauchy family must fit at least as well as Gaussian or
// standard Cauchy.
func TestModifiedCauchyBeatsAlternativesOnOwnData(t *testing.T) {
	truth := ModifiedCauchy{Alpha: 0.75, Beta: 2.0}
	dts := make([]float64, 15)
	vals := make([]float64, 15)
	for i := range dts {
		dts[i] = float64(i - 4)
		vals[i] = 0.65 * truth.Eval(dts[i])
	}
	fits := FitAllTemporal(dts, vals)
	mc := fits["modified-cauchy"].Residual
	if mc > fits["cauchy"].Residual+1e-9 || mc > fits["gaussian"].Residual+1e-9 {
		t.Errorf("modified Cauchy residual %g not best (cauchy %g, gaussian %g)",
			mc, fits["cauchy"].Residual, fits["gaussian"].Residual)
	}
}

func TestTemporalFitCurve(t *testing.T) {
	fit := TemporalFit{Model: ModifiedCauchy{Alpha: 1, Beta: 1}, Peak: 0.5}
	c := fit.Curve([]float64{0, 1})
	if c[0] != 0.5 || math.Abs(c[1]-0.25) > 1e-12 {
		t.Errorf("Curve = %v", c)
	}
}

// residualPowRef is the fitting p-norm as the fits first wrote it, one
// math.Pow per point whatever p is: the oracle for residualPNorm and
// for FitModifiedCauchyNorm's kernel, sharing no code with either.
func residualPowRef(dts, values []float64, peak float64, m TemporalModel, p float64) float64 {
	var s float64
	for i, dt := range dts {
		s += math.Pow(math.Abs(values[i]-peak*m.Eval(dt)), p)
	}
	return math.Pow(s, 1/p)
}

// fitModifiedCauchyRef is the fit as it was before the separable
// search: every grid point recomputes |dt|^α through the model's Eval.
func fitModifiedCauchyRef(dts, values []float64, p float64) (alpha, beta, residual float64) {
	peak := peakOf(values)
	return gridSearch2(
		Range{Lo: 0.05, Hi: 2.0},
		Range{Lo: 0.01, Hi: 100.0, Log: true},
		50, func(a, b float64) float64 {
			return residualPowRef(dts, values, peak, ModifiedCauchy{Alpha: a, Beta: b}, p)
		})
}

// fitOneRef is fitCauchy's and fitGaussian's search as it was before
// gridSearch1 walked one axis: a 200 × 200 gridSearch2 whose second
// axis is the one point 1, over the Pow residual.
func fitOneRef(dts, values []float64, model func(x float64) TemporalModel) (x, residual float64) {
	peak := peakOf(values)
	x, _, residual = gridSearch2(Range{Lo: 0.05, Hi: 50, Log: true}, Range{Lo: 1, Hi: 1}, 200,
		func(x, _ float64) float64 { return residualPowRef(dts, values, peak, model(x), 0.5) })
	return x, residual
}

func cauchyOf(g float64) TemporalModel   { return Cauchy{Gamma: g} }
func gaussianOf(s float64) TemporalModel { return Gaussian{Sigma: s} }

// sameBits reports whether each got equals its want bit for bit.
func sameBits(got, want []float64) bool {
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return false
		}
	}
	return true
}

// eachFitSeries calls f with the series shapes the report graph feeds
// the temporal fits (15 months, the snapshot somewhere inside), each at
// a whole and a fractional snapshot month.
func eachFitSeries(f func(name string, offset float64, dts, vals []float64)) {
	truth := ModifiedCauchy{Alpha: 0.75, Beta: 2}
	shapes := map[string]func(i int, dt float64) float64{
		"flat":          func(int, float64) float64 { return 0.31 },
		"single-peak":   func(_ int, dt float64) float64 { return 0.65 * truth.Eval(dt) },
		"noisy-peak":    func(i int, dt float64) float64 { return 0.65*truth.Eval(dt) + 0.013*float64(i*7%5) },
		"peak-at-start": func(_ int, dt float64) float64 { return 0.8 * truth.Eval(dt+4) },
		"peak-at-end":   func(_ int, dt float64) float64 { return 0.8 * truth.Eval(dt-10) },
		"zero":          func(int, float64) float64 { return 0 },
	}
	for name, shape := range shapes {
		for _, offset := range []float64{4, 4.55} {
			dts, vals := make([]float64, 15), make([]float64, 15)
			for i := range dts {
				dts[i] = float64(i) - offset
				vals[i] = shape(i, dts[i])
			}
			f(name, offset, dts, vals)
		}
	}
}

// TestFitModifiedCauchyBitIdentical pins the hoisted kernel to the
// un-hoisted one bit for bit under each norm the ablations use. A
// one-ulp drift would move golden artifacts.
func TestFitModifiedCauchyBitIdentical(t *testing.T) {
	eachFitSeries(func(name string, offset float64, dts, vals []float64) {
		for _, p := range []float64{0.5, 1, 2} {
			fit := FitModifiedCauchyNorm(dts, vals, p)
			m := fit.Model.(ModifiedCauchy)
			a, b, r := fitModifiedCauchyRef(dts, vals, p)
			if !sameBits([]float64{m.Alpha, m.Beta, fit.Residual}, []float64{a, b, r}) {
				t.Errorf("%s offset %g p=%g: fit (%v, %v, %v), reference (%v, %v, %v)",
					name, offset, p, m.Alpha, m.Beta, fit.Residual, a, b, r)
			}
		}
	})
}

// TestFitCauchyGaussianBitIdentical pins the one-parameter fits — a
// 1-D search over the square-root residual — to their 2-D, Pow-residual
// formulation bit for bit.
func TestFitCauchyGaussianBitIdentical(t *testing.T) {
	eachFitSeries(func(name string, offset float64, dts, vals []float64) {
		c, g := fitCauchy(dts, vals), fitGaussian(dts, vals)
		cx, cr := fitOneRef(dts, vals, cauchyOf)
		gx, gr := fitOneRef(dts, vals, gaussianOf)
		if !sameBits([]float64{c.Model.(Cauchy).Gamma, c.Residual}, []float64{cx, cr}) {
			t.Errorf("%s offset %g: cauchy fit (%v, %v), reference (%v, %v)",
				name, offset, c.Model.(Cauchy).Gamma, c.Residual, cx, cr)
		}
		if !sameBits([]float64{g.Model.(Gaussian).Sigma, g.Residual}, []float64{gx, gr}) {
			t.Errorf("%s offset %g: gaussian fit (%v, %v), reference (%v, %v)",
				name, offset, g.Model.(Gaussian).Sigma, g.Residual, gx, gr)
		}
	})
}

// pointHash scrambles x's bits with seed (a splitmix64 finaliser): a
// loss built on it scores a point the same however often it is asked.
func pointHash(seed uint64, x float64) uint64 {
	h := math.Float64bits(x) ^ seed
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	return h ^ h>>31
}

// TestGridSearch1MatchesDegenerate2D holds gridSearch1 to what it was
// before it walked one axis — gridSearch2 with a second axis of the one
// point 1 — on random scores, scores with many tied minima, scores with
// NaNs, no score at all, and one minimum, over linear and log ranges.
func TestGridSearch1MatchesDegenerate2D(t *testing.T) {
	losses := map[string]func(seed uint64, x float64) float64{
		"random": func(seed uint64, x float64) float64 { return float64(pointHash(seed, x)>>11) / (1 << 53) },
		"tied":   func(seed uint64, x float64) float64 { return float64(pointHash(seed, x) % 3) },
		"nan": func(seed uint64, x float64) float64 {
			if h := pointHash(seed, x); h%4 != 0 {
				return float64(h % 5)
			}
			return math.NaN()
		},
		"all-nan": func(uint64, float64) float64 { return math.NaN() },
		"smooth":  func(seed uint64, x float64) float64 { return math.Abs(x - float64(seed%97)/7) },
	}
	rng := rand.New(rand.NewSource(29))
	for name, loss := range losses {
		for trial := 0; trial < 20; trial++ {
			seed := rng.Uint64()
			lo := rng.Float64() * 10
			ranges := []Range{
				{Lo: lo, Hi: lo + rng.Float64()*20},
				{Lo: lo + 0.01, Hi: (lo + 0.01) * (1 + rng.Float64()*1e3), Log: true},
			}
			for _, r := range ranges {
				steps := 1 + rng.Intn(60)
				f := func(x float64) float64 { return loss(seed, x) }
				x, l := gridSearch1(r, steps, f)
				wx, _, wl := gridSearch2(r, Range{Lo: 1, Hi: 1}, steps, func(x, _ float64) float64 { return f(x) })
				if !sameBits([]float64{x, l}, []float64{wx, wl}) {
					t.Errorf("%s %+v steps %d: gridSearch1 (%v, %v), degenerate gridSearch2 (%v, %v)",
						name, r, steps, x, l, wx, wl)
				}
			}
		}
	}
}

// TestGridSearchEvaluationCounts counts loss calls: a grid point is
// evaluated once per stage, so Figure 5's one-parameter fits (200
// steps) cost 400 calls, not the 80 000 of a 200 × 200 walk.
func TestGridSearchEvaluationCounts(t *testing.T) {
	for _, steps := range []int{1, 2, 7, 50, 200} {
		n := max(steps, 2)
		var calls1, calls2 int
		gridSearch1(Range{Lo: 0.05, Hi: 50, Log: true}, steps, func(x float64) float64 { calls1++; return x })
		gridSearch2(Range{Lo: 0.05, Hi: 2}, Range{Lo: 0.01, Hi: 100, Log: true}, steps,
			func(a, b float64) float64 { calls2++; return a + b })
		if calls1 != 2*n {
			t.Errorf("gridSearch1 at %d steps called its loss %d times, want %d", steps, calls1, 2*n)
		}
		if calls2 != 2*n*n {
			t.Errorf("gridSearch2 at %d steps called its loss %d times, want %d", steps, calls2, 2*n*n)
		}
	}
}

// FuzzHalfNormKernel holds the ½-norm's square root to math.Pow(·, ½)
// on any float64 — ±0, subnormals, ±Inf, NaNs of any payload — and the
// three temporal fits to their Pow-residual, 2-D-search references on
// any series of 1–15 points.
func FuzzHalfNormKernel(f *testing.F) {
	series := func(vals ...float64) []byte {
		var b []byte
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	peak := make([]float64, 15)
	for i := range peak {
		peak[i] = 0.65 * ModifiedCauchy{Alpha: 0.75, Beta: 2}.Eval(float64(i)-4)
	}
	f.Add(math.Float64bits(0.25), 4.0, series(peak...))
	f.Add(math.Float64bits(math.Copysign(0, -1)), 4.55, series(0, 0, 0))
	f.Add(uint64(1), 0.0, series(math.SmallestNonzeroFloat64))
	f.Add(uint64(0xfff8000000000000), -3.0, series(math.Inf(1), 0.5, math.NaN(), -0.25))
	f.Fuzz(func(t *testing.T, bits uint64, offset float64, raw []byte) {
		x := math.Float64frombits(bits)
		got, want := math.Sqrt(math.Abs(x)), math.Pow(math.Abs(x), 0.5)
		if math.IsNaN(want) != math.IsNaN(got) || !math.IsNaN(want) && !sameBits([]float64{got}, []float64{want}) {
			t.Fatalf("Sqrt(|%v|) = %v (%#x), Pow(|x|, 0.5) = %v (%#x)",
				x, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		got, want = pNorm([]float64{x}, 0.5), residualPowRef([]float64{0}, []float64{x}, 1, noModel{}, 0.5)
		if !sameBits([]float64{got}, []float64{want}) {
			t.Fatalf("½-norm of {%v} = %#x, Pow form %#x", x, math.Float64bits(got), math.Float64bits(want))
		}

		n := min(len(raw)/8, 15)
		if n == 0 {
			return
		}
		dts, vals := make([]float64, n), make([]float64, n)
		for i := range vals {
			dts[i] = float64(i) - offset
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		mc, c, g := FitModifiedCauchy(dts, vals), fitCauchy(dts, vals), fitGaussian(dts, vals)
		a, b, r := fitModifiedCauchyRef(dts, vals, 0.5)
		cx, cr := fitOneRef(dts, vals, cauchyOf)
		gx, gr := fitOneRef(dts, vals, gaussianOf)
		m := mc.Model.(ModifiedCauchy)
		if !sameBits(
			[]float64{m.Alpha, m.Beta, mc.Residual, c.Model.(Cauchy).Gamma, c.Residual, g.Model.(Gaussian).Sigma, g.Residual},
			[]float64{a, b, r, cx, cr, gx, gr}) {
			t.Fatalf("dts %v values %v: fits (%v, %v, %v) (%v, %v) (%v, %v), references (%v, %v, %v) (%v, %v) (%v, %v)",
				dts, vals, m.Alpha, m.Beta, mc.Residual, c.Model.(Cauchy).Gamma, c.Residual, g.Model.(Gaussian).Sigma, g.Residual,
				a, b, r, cx, cr, gx, gr)
		}
	})
}

func BenchmarkFitModifiedCauchy(b *testing.B) {
	truth := ModifiedCauchy{Alpha: 1, Beta: 4}
	dts := make([]float64, 15)
	vals := make([]float64, 15)
	for i := range dts {
		dts[i] = float64(i - 4)
		vals[i] = truth.Eval(dts[i])
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		FitModifiedCauchy(dts, vals)
	}
}

// BenchmarkFitAllTemporal is Figure 5's unit of work: the three model
// fits of one 15-month series.
func BenchmarkFitAllTemporal(b *testing.B) {
	truth := ModifiedCauchy{Alpha: 0.75, Beta: 2}
	dts := make([]float64, 15)
	vals := make([]float64, 15)
	for i := range dts {
		dts[i] = float64(i - 4)
		vals[i] = 0.65 * truth.Eval(dts[i])
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		FitAllTemporal(dts, vals)
	}
}

func BenchmarkZipfSample(b *testing.B) {
	z := PaperZM(1 << 30)
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		z.Sample(rng)
	}
}
