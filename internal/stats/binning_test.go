package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLogBinIndex(t *testing.T) {
	cases := []struct {
		d    float64
		want int
	}{
		{0.5, 0}, {1, 0}, {1.5, 1}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4},
		{1024, 10}, {1025, 11},
	}
	for _, c := range cases {
		if got := logBinIndex(c.d); got != c.want {
			t.Errorf("logBinIndex(%g) = %d, want %d", c.d, got, c.want)
		}
	}
}

func TestLogBinPowersOfTwoExact(t *testing.T) {
	// Powers of two must land in their own bin (upper-inclusive edges).
	for i := 0; i <= 30; i++ {
		d := math.Pow(2, float64(i))
		if got := logBinIndex(d); got != i {
			t.Errorf("logBinIndex(2^%d) = %d, want %d", i, got, i)
		}
	}
}

func TestLogBinCounts(t *testing.T) {
	b := LogBin([]float64{1, 1, 2, 3, 4, 8, 0.2})
	// bins: 1,1 -> bin0 ; 2 -> bin1 ; 3,4 -> bin2 ; 8 -> bin3; 0.2 dropped
	want := []float64{2, 1, 2, 1}
	if len(b.Counts) != len(want) {
		t.Fatalf("bins = %v", b.Counts)
	}
	for i := range want {
		if b.Counts[i] != want[i] {
			t.Errorf("bin %d = %g, want %g", i, b.Counts[i], want[i])
		}
	}
	if b.Total != 6 {
		t.Errorf("Total = %g, want 6", b.Total)
	}
	if b.Centers[3] != 8 {
		t.Errorf("Centers[3] = %g, want 8", b.Centers[3])
	}
}

func TestLogBinEmpty(t *testing.T) {
	b := LogBin(nil)
	if len(b.Counts) != 0 || b.Total != 0 {
		t.Error("empty input produced non-empty binning")
	}
	if p := b.Prob(); len(p) != 0 {
		t.Error("Prob of empty binning non-empty")
	}
}

func TestProbSumsToOne(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		vals := make([]float64, 500)
		for i := range vals {
			vals[i] = float64(1 + rng.Intn(10000))
		}
		p := LogBin(vals).Prob()
		var s float64
		for _, x := range p {
			s += x
		}
		return math.Abs(s-1) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestBandIndex(t *testing.T) {
	cases := []struct {
		d    float64
		want int
	}{
		{0.5, -1}, {1, 0}, {1.9, 0}, {2, 1}, {3.9, 1}, {4, 2},
		{16384, 14}, {32767, 14}, {32768, 15},
		{math.NaN(), -1}, {math.Inf(1), -1}, {math.Inf(-1), -1}, {math.MaxFloat64, 1023},
	}
	for _, c := range cases {
		if got := BandIndex(c.d); got != c.want {
			t.Errorf("BandIndex(%g) = %d, want %d", c.d, got, c.want)
		}
	}
}

func TestBandLowInverse(t *testing.T) {
	for i := 0; i < 25; i++ {
		if BandIndex(BandLow(i)) != i {
			t.Errorf("BandIndex(BandLow(%d)) != %d", i, i)
		}
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4})
	if s.N != 4 || s.Mean != 2.5 || s.Min != 1 || s.Max != 4 {
		t.Errorf("Summary = %+v", s)
	}
	// sample variance of 1..4 is 5/3
	if math.Abs(s.Variance-5.0/3.0) > 1e-12 {
		t.Errorf("Variance = %g, want %g", s.Variance, 5.0/3.0)
	}
	if z := Summarize(nil); z.N != 0 || z.Mean != 0 {
		t.Error("empty summary not zero")
	}
	one := Summarize([]float64{7})
	if one.Variance != 0 || one.Mean != 7 {
		t.Errorf("single-sample summary = %+v", one)
	}
}
