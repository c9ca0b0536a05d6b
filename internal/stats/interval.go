package stats

import "math"

// interval.go provides uncertainty quantification for the correlation
// measurements: Wilson score intervals for the per-band fractions
// (binomial proportions). The paper plots point estimates only; the
// intervals let the reproduction distinguish real shape from small-band
// noise.

// wilsonCI returns the Wilson score interval for k successes in n
// trials at the given z value (1.96 for 95%). It is well-behaved at
// k = 0 and k = n, unlike the normal approximation.
func wilsonCI(k, n int, z float64) (lo, hi float64) {
	if n <= 0 {
		return 0, 1
	}
	p := float64(k) / float64(n)
	nn := float64(n)
	z2 := z * z
	den := 1 + z2/nn
	center := (p + z2/(2*nn)) / den
	half := z / den * math.Sqrt(p*(1-p)/nn+z2/(4*nn*nn))
	lo, hi = center-half, center+half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// Wilson95 is wilsonCI at 95% confidence.
func Wilson95(k, n int) (lo, hi float64) { return wilsonCI(k, n, 1.96) }
