package radiation

import "math"

func log2(x float64) float64 { return math.Log2(x) }

// gauss is the unnormalized Gaussian kernel exp(-x²/2).
func gauss(x float64) float64 { return math.Exp(-x * x / 2) }

// sm64 is a splitmix64 PRNG: 8 bytes of state, good enough statistical
// quality for packet jitter, and small enough to embed one in every
// active source's packet train (a math/rand.Rand would cost ~5 KB each).
type sm64 struct{ state uint64 }

func newSM64(seed uint64) sm64 { return sm64{state: seed} }

func (r *sm64) next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// float64 returns a uniform value in [0, 1).
func (r *sm64) float64() float64 {
	return float64(r.next()>>11) / float64(1<<53)
}

// intn returns a uniform value in [0, n).
func (r *sm64) intn(n int) int {
	return int(r.next() % uint64(n))
}

// exp returns an exponential variate with the given mean.
func (r *sm64) exp(mean float64) float64 {
	u := r.float64()
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	return -mean * math.Log(1-u)
}
