package hypersparse

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestMxVDenseEqualsRowSums(t *testing.T) {
	// Table II in semiring form: A·1 over plus-times is RowSums.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := FromEntries(randomEntries(rng, 500, 64, 64))
		a := m.MxVDense(PlusTimes, 1)
		b := m.RowSums()
		if a.NNZ() != b.NNZ() {
			return false
		}
		ok := true
		a.Iterate(func(id uint32, v float64) bool {
			if b.At(id) != v {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestMxVDensePatternEqualsRowDegrees(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := FromEntries(randomEntries(rng, 800, 64, 64))
	// |A|0 · 1 over plus-times == fan-out.
	got := m.Pattern().MxVDense(PlusTimes, 1)
	want := m.RowDegrees()
	want.Iterate(func(id uint32, v float64) bool {
		if got.At(id) != v {
			t.Fatalf("fan-out mismatch at %d: %g vs %g", id, got.At(id), v)
		}
		return true
	})
}

func TestMxVSparse(t *testing.T) {
	m := FromEntries([]Entry{{1, 10, 2}, {1, 11, 3}, {2, 11, 5}, {3, 12, 7}})
	v := VectorFromMap(map[uint32]float64{10: 1, 11: 10})
	got := m.MxV(PlusTimes, v)
	// row 1: 2*1 + 3*10 = 32; row 2: 5*10 = 50; row 3: no overlap.
	if got.NNZ() != 2 || got.At(1) != 32 || got.At(2) != 50 || got.At(3) != 0 {
		t.Errorf("MxV = %v (nnz %d)", got, got.NNZ())
	}
}

// bruteMxM is a reference dense multiply over a semiring.
func bruteMxM(s Semiring, a, b *Matrix) map[[2]uint32]float64 {
	out := make(map[[2]uint32]float64)
	touched := make(map[[2]uint32]bool)
	a.Iterate(func(ea Entry) bool {
		b.Iterate(func(eb Entry) bool {
			if ea.Col != eb.Row {
				return true
			}
			k := [2]uint32{ea.Row, eb.Col}
			prod := s.Mul(ea.Val, eb.Val)
			if touched[k] {
				out[k] = s.Add(out[k], prod)
			} else {
				out[k] = s.Add(s.Identity, prod)
				touched[k] = true
			}
			return true
		})
		return true
	})
	return out
}

func TestMxMMatchesBruteForce(t *testing.T) {
	for _, s := range []Semiring{PlusTimes, OrAnd, MaxPlus} {
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			a := FromEntries(randomEntries(rng, 150, 24, 24))
			b := FromEntries(randomEntries(rng, 150, 24, 24))
			got := MxM(s, a, b)
			want := bruteMxM(s, a, b)
			if got.NNZ() != len(want) {
				return false
			}
			ok := true
			got.Iterate(func(e Entry) bool {
				if want[[2]uint32{e.Row, e.Col}] != e.Val {
					ok = false
					return false
				}
				return true
			})
			return ok
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
			t.Errorf("semiring %s: %v", s.Name, err)
		}
	}
}

func TestMxMCorrelationUseCase(t *testing.T) {
	// A^T over or-and against A gives the destination co-visitation
	// pattern: (A^T A)(j,k) = 1 iff some source hits both j and k.
	a := FromEntries([]Entry{
		{1, 10, 5}, {1, 11, 2}, // source 1 hits 10 and 11
		{2, 11, 1}, // source 2 hits 11
	})
	co := MxM(OrAnd, a.Transpose(), a)
	if co.At(10, 11) != 1 || co.At(11, 10) != 1 {
		t.Error("co-visitation missing for (10, 11)")
	}
	if co.At(10, 10) != 1 || co.At(11, 11) != 1 {
		t.Error("diagonal missing")
	}
	if co.NNZ() != 4 {
		t.Errorf("NNZ = %d, want 4", co.NNZ())
	}
}

func TestEWiseMultIntersection(t *testing.T) {
	a := FromEntries([]Entry{{1, 1, 2}, {1, 2, 3}, {2, 1, 4}})
	b := FromEntries([]Entry{{1, 2, 10}, {2, 1, 10}, {3, 3, 10}})
	got := EWiseMult(PlusTimes, a, b)
	if got.NNZ() != 2 || got.At(1, 2) != 30 || got.At(2, 1) != 40 {
		t.Errorf("EWiseMult = %v", got.Entries())
	}
	// structural version
	inter := EWiseMult(OrAnd, a, b)
	if inter.Sum() != 2 {
		t.Errorf("structural intersection size = %g, want 2", inter.Sum())
	}
}

func TestEWiseMultCommutesWithSwap(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := FromEntries(randomEntries(rng, 200, 32, 32))
		b := FromEntries(randomEntries(rng, 200, 32, 32))
		return Equal(EWiseMult(PlusTimes, a, b), EWiseMult(PlusTimes, b, a))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestEWiseAddMatchesAdd(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := FromEntries(randomEntries(rng, 300, 40, 40))
		b := FromEntries(randomEntries(rng, 300, 40, 40))
		return Equal(EWiseAdd(PlusTimes, a, b), Add(a, b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestEWiseAddMaxSemiring(t *testing.T) {
	a := FromEntries([]Entry{{1, 1, 3}})
	b := FromEntries([]Entry{{1, 1, 7}, {2, 2, 1}})
	got := EWiseAdd(MaxPlus, a, b) // Add of max-plus is max
	if got.At(1, 1) != 7 || got.At(2, 2) != 1 {
		t.Errorf("EWiseAdd(MaxPlus) = %v", got.Entries())
	}
}

// TestEWiseAddUnionEdges: a matched pair that combines to zero stays a
// stored cell, and operands with no row in common interleave whole rows.
func TestEWiseAddUnionEdges(t *testing.T) {
	zero := EWiseAdd(PlusTimes, FromEntries([]Entry{{1, 1, 2}, {1, 4, 0}}), FromEntries([]Entry{{1, 1, -2}}))
	if want := []Entry{{1, 1, 0}, {1, 4, 0}}; !reflect.DeepEqual(zero.Entries(), want) {
		t.Errorf("explicit zeros: got %v, want %v", zero.Entries(), want)
	}
	a := FromEntries([]Entry{{1, 7, 1}, {5, 2, 2}, {5, 3, 3}})
	b := FromEntries([]Entry{{2, 7, 4}, {3, 1, 5}, {9, 9, 6}})
	want := []Entry{{1, 7, 1}, {2, 7, 4}, {3, 1, 5}, {5, 2, 2}, {5, 3, 3}, {9, 9, 6}}
	for _, got := range []*Matrix{EWiseAdd(MaxPlus, a, b), EWiseAdd(MaxPlus, b, a)} {
		if !reflect.DeepEqual(got.Entries(), want) {
			t.Errorf("disjoint rows: got %v, want %v", got.Entries(), want)
		}
	}
}

func TestApply(t *testing.T) {
	m := FromEntries([]Entry{{1, 1, 4}, {2, 2, 9}})
	sq := m.Apply(func(v float64) float64 { return v * v })
	if sq.At(1, 1) != 16 || sq.At(2, 2) != 81 {
		t.Error("Apply square failed")
	}
	// Pattern is preserved even for zero results.
	z := m.Apply(func(float64) float64 { return 0 })
	if z.NNZ() != 2 {
		t.Error("Apply dropped explicit zeros")
	}
	// Original untouched.
	if m.At(1, 1) != 4 {
		t.Error("Apply mutated the receiver")
	}
}

func TestSelect(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := FromEntries(randomEntries(rng, 500, 50, 50))
	big := m.Select(func(e Entry) bool { return e.Val >= 3 })
	n := 0
	m.Iterate(func(e Entry) bool {
		if e.Val >= 3 {
			n++
			if big.At(e.Row, e.Col) != e.Val {
				t.Fatalf("selected entry lost: %v", e)
			}
		} else if big.At(e.Row, e.Col) != 0 {
			t.Fatalf("unselected entry kept: %v", e)
		}
		return true
	})
	if big.NNZ() != n {
		t.Errorf("Select NNZ = %d, want %d", big.NNZ(), n)
	}
}

func TestReduce(t *testing.T) {
	m := FromEntries([]Entry{{1, 1, 3}, {2, 2, 5}, {3, 3, 2}})
	if got := m.Reduce(0, PlusTimes.Add); got != 10 {
		t.Errorf("Reduce(+) = %g, want 10", got)
	}
	if got := m.Reduce(negInf, MaxPlus.Add); got != 5 {
		t.Errorf("Reduce(max) = %g, want 5", got)
	}
}

func BenchmarkMxM(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	x := FromEntries(randomEntries(rng, 1<<13, 1<<10, 1<<10))
	y := FromEntries(randomEntries(rng, 1<<13, 1<<10, 1<<10))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MxM(PlusTimes, x, y)
	}
}

func BenchmarkMxVDense(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	m := FromEntries(randomEntries(rng, 1<<16, 1<<18, 1<<18))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MxVDense(PlusTimes, 1)
	}
}
