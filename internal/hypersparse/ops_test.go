package hypersparse

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// add is the two-operand sum as the pipeline computes it: a merge of
// two leaves.
func add(a, b *Matrix) *Matrix { return HierSum([]*Matrix{a, b}, 1) }

func TestAddMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		ea := randomEntries(rng, 1000, 80, 80)
		eb := randomEntries(rng, 1000, 80, 80)
		got := add(FromEntries(ea), FromEntries(eb))
		want := FromEntries(append(append([]Entry{}, ea...), eb...))
		if !Equal(got, want) {
			t.Fatalf("trial %d: sum disagrees with combined build", trial)
		}
	}
}

func TestAddIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := FromEntries(randomEntries(rng, 500, 64, 64))
	empty := &Matrix{}
	if !Equal(add(m, empty), m) || !Equal(add(empty, m), m) {
		t.Error("empty matrix is not an additive identity")
	}
}

func TestAddCommutative(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := FromEntries(randomEntries(rng, 300, 40, 40))
		b := FromEntries(randomEntries(rng, 300, 40, 40))
		return Equal(add(a, b), add(b, a))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestAddAssociative(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := FromEntries(randomEntries(rng, 200, 32, 32))
		b := FromEntries(randomEntries(rng, 200, 32, 32))
		c := FromEntries(randomEntries(rng, 200, 32, 32))
		return Equal(add(add(a, b), c), add(a, add(b, c)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestReductionsAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	es := randomEntries(rng, 3000, 100, 100)
	m := FromEntries(es)
	ref := refMap(es)

	rowSum := make(map[uint32]float64)
	rowDeg := make(map[uint32]float64)
	colSum := make(map[uint32]float64)
	colDeg := make(map[uint32]float64)
	var maxv float64
	for k, v := range ref {
		rowSum[k[0]] += v
		rowDeg[k[0]]++
		colSum[k[1]] += v
		colDeg[k[1]]++
		if v > maxv {
			maxv = v
		}
	}
	check := func(name string, got, want map[uint32]float64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: NNZ=%d, want %d", name, len(got), len(want))
		}
		for id, v := range got {
			if want[id] != v {
				t.Fatalf("%s[%d] = %g, want %g", name, id, v, want[id])
			}
		}
	}
	scanSum, scanDeg := make(map[uint32]float64), make(map[uint32]float64)
	m.RowScan(func(row uint32, sum float64, nnz int) {
		scanSum[row], scanDeg[row] = sum, float64(nnz)
	})
	check("RowScan sums", scanSum, rowSum)
	check("RowScan degrees", scanDeg, rowDeg)
	scanSum, scanDeg = make(map[uint32]float64), make(map[uint32]float64)
	m.colScan(0, 1, func(col uint32, sum float64, nnz int) {
		scanSum[col], scanDeg[col] = sum, float64(nnz)
	})
	check("colScan sums", scanSum, colSum)
	check("colScan degrees", scanDeg, colDeg)
	if got := m.Stats(1).MaxVal; got != maxv {
		t.Errorf("MaxVal = %g, want %g", got, maxv)
	}
}

// TestPermutationInvariance is the core anonymization guarantee: every
// Table II aggregate is unchanged when indices are relabeled by an
// injective map (such as CryptoPAN).
func TestPermutationInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := FromEntries(randomEntries(rng, 2000, 90, 90))
	// A fixed random permutation of the index space (injective on uint32).
	perm := func(x uint32) uint32 { return x*2654435761 + 12345 } // odd multiplier => bijection mod 2^32
	pm := m.PermuteFunc(perm)

	if got, want := pm.Stats(1), m.Stats(1); got != want {
		t.Errorf("Table II aggregates changed under permutation:\n got %+v\nwant %+v", got, want)
	}
	// The multiset of row sums is preserved, not just the max.
	sums := func(m *Matrix) []float64 {
		var out []float64
		m.RowScan(func(_ uint32, sum float64, _ int) { out = append(out, sum) })
		sort.Float64s(out)
		return out
	}
	if !slices.Equal(sums(pm), sums(m)) {
		t.Error("row-sum multiset changed under permutation")
	}
}

func TestEqual(t *testing.T) {
	a := FromEntries([]Entry{{1, 2, 3}})
	b := FromEntries([]Entry{{1, 2, 3}})
	c := FromEntries([]Entry{{1, 2, 4}})
	d := FromEntries([]Entry{{2, 2, 3}})
	if !Equal(a, b) {
		t.Error("identical matrices not Equal")
	}
	if Equal(a, c) || Equal(a, d) {
		t.Error("different matrices Equal")
	}
}
