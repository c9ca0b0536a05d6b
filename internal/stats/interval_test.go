package stats

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWilsonCIBasics(t *testing.T) {
	lo, hi := Wilson95(50, 100)
	if lo >= 0.5 || hi <= 0.5 {
		t.Errorf("CI [%g, %g] does not contain the point estimate 0.5", lo, hi)
	}
	if hi-lo > 0.25 {
		t.Errorf("CI [%g, %g] too wide for n=100", lo, hi)
	}
	// Edge cases: no failures / no successes stay within [0, 1] and
	// exclude the far end.
	lo, hi = Wilson95(0, 20)
	if lo != 0 || hi > 0.3 {
		t.Errorf("k=0 CI = [%g, %g]", lo, hi)
	}
	lo, hi = Wilson95(20, 20)
	if hi != 1 || lo < 0.7 {
		t.Errorf("k=n CI = [%g, %g]", lo, hi)
	}
	lo, hi = Wilson95(0, 0)
	if lo != 0 || hi != 1 {
		t.Errorf("n=0 CI = [%g, %g], want [0, 1]", lo, hi)
	}
}

func TestWilsonCIShrinksWithN(t *testing.T) {
	lo1, hi1 := Wilson95(5, 10)
	lo2, hi2 := Wilson95(500, 1000)
	if hi2-lo2 >= hi1-lo1 {
		t.Errorf("CI did not shrink: n=10 width %g, n=1000 width %g", hi1-lo1, hi2-lo2)
	}
}

func TestWilsonCIProperty(t *testing.T) {
	f := func(kRaw, nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		k := int(kRaw) % (n + 1)
		lo, hi := Wilson95(k, n)
		p := float64(k) / float64(n)
		return lo >= 0 && hi <= 1 && lo <= p+1e-12 && hi >= p-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWilsonCICoverage(t *testing.T) {
	// Monte Carlo coverage: ~95% of intervals from binomial draws must
	// contain the true p.
	rng := rand.New(rand.NewSource(17))
	const trials = 2000
	const n = 200
	const p = 0.3
	covered := 0
	for i := 0; i < trials; i++ {
		k := 0
		for j := 0; j < n; j++ {
			if rng.Float64() < p {
				k++
			}
		}
		lo, hi := Wilson95(k, n)
		if lo <= p && p <= hi {
			covered++
		}
	}
	rate := float64(covered) / trials
	if rate < 0.92 || rate > 0.99 {
		t.Errorf("coverage = %g, want ~0.95", rate)
	}
}
