package stats

import "math"

// Range is a closed parameter interval for grid search.
type Range struct {
	Lo, Hi float64
	Log    bool // geometric spacing when true
}

// values materializes n grid points across the range.
func (r Range) values(n int) []float64 {
	if n == 1 {
		return []float64{r.Lo}
	}
	out := make([]float64, n)
	if r.Log {
		llo, lhi := math.Log(r.Lo), math.Log(r.Hi)
		for i := range out {
			out[i] = math.Exp(llo + (lhi-llo)*float64(i)/float64(n-1))
		}
	} else {
		for i := range out {
			out[i] = r.Lo + (r.Hi-r.Lo)*float64(i)/float64(n-1)
		}
	}
	return out
}

// gridSearch2 minimizes loss over a 2-D grid, then refines with a second,
// narrower grid centered on the coarse optimum (one zoom stage is enough
// for the smooth single-minimum losses used here). It mirrors the paper's
// procedure of "generating all distributions over a range of possible α
// and β values ... and then selecting the α and β that minimize" the
// fitting norm. It calls loss 2·steps² times.
func gridSearch2(ra, rb Range, steps int, loss func(a, b float64) float64) (bestA, bestB, bestLoss float64) {
	if steps < 2 {
		steps = 2
	}
	bestLoss = math.Inf(1)
	as, bs := ra.values(steps), rb.values(steps)
	for _, a := range as {
		for _, b := range bs {
			if l := loss(a, b); l < bestLoss {
				bestA, bestB, bestLoss = a, b, l
			}
		}
	}
	ra2, rb2 := ra.zoom(bestA, steps), rb.zoom(bestB, steps)
	for _, a := range ra2.values(steps) {
		for _, b := range rb2.values(steps) {
			if l := loss(a, b); l < bestLoss {
				bestA, bestB, bestLoss = a, b, l
			}
		}
	}
	return bestA, bestB, bestLoss
}

// gridSearch1 minimizes loss over a 1-D grid, then over the same zoomed
// grid gridSearch2 refines with. It calls loss 2·steps times, visiting
// the points gridSearch2 would over a second axis of one point, in the
// same order, so for a loss that ignores that axis the two agree bit for
// bit (the strict < keeps the first of tied minima either way).
func gridSearch1(r Range, steps int, loss func(x float64) float64) (bestX, bestLoss float64) {
	if steps < 2 {
		steps = 2
	}
	bestLoss = math.Inf(1)
	for _, x := range r.values(steps) {
		if l := loss(x); l < bestLoss {
			bestX, bestLoss = x, l
		}
	}
	for _, x := range r.zoom(bestX, steps).values(steps) {
		if l := loss(x); l < bestLoss {
			bestX, bestLoss = x, l
		}
	}
	return bestX, bestLoss
}

// zoom shrinks r around best by one pitch of a steps-point grid.
func (r Range) zoom(best float64, steps int) Range {
	if r.Log {
		f := math.Pow(r.Hi/r.Lo, 1/float64(steps-1))
		return Range{Lo: math.Max(r.Lo, best/f), Hi: math.Min(r.Hi, best*f), Log: true}
	}
	h := (r.Hi - r.Lo) / float64(steps-1)
	return Range{Lo: math.Max(r.Lo, best-h), Hi: math.Min(r.Hi, best+h)}
}
