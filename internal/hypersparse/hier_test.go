package hypersparse

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// flatSum is HierSum's flat oracle: one FromEntries over every leaf's
// entries.
func flatSum(leaves []*Matrix) *Matrix {
	var es []Entry
	for _, l := range leaves {
		if l != nil {
			es = append(es, l.Entries()...)
		}
	}
	return FromEntries(es)
}

func TestHierSumMatchesFlat(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nLeaves := 1 + rng.Intn(9)
		leaves := make([]*Matrix, nLeaves)
		for i := range leaves {
			leaves[i] = FromEntries(randomEntries(rng, 200, 50, 50))
		}
		return Equal(HierSum(leaves, 4), flatSum(leaves))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestHierSumEdgeCases(t *testing.T) {
	if HierSum(nil, 1).NNZ() != 0 {
		t.Error("HierSum(nil) not empty")
	}
	if HierSum([]*Matrix{nil, {}, nil}, 1).NNZ() != 0 {
		t.Error("HierSum of nils/empties not empty")
	}
	m := FromEntries([]Entry{{1, 1, 1}})
	if !Equal(HierSum([]*Matrix{m}, 1), m) {
		t.Error("single-leaf HierSum changed the matrix")
	}
}

func TestHierSumOddLeafCount(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	leaves := make([]*Matrix, 7)
	for i := range leaves {
		leaves[i] = FromEntries(randomEntries(rng, 100, 30, 30))
	}
	if !Equal(HierSum(leaves, 3), flatSum(leaves)) {
		t.Error("odd leaf count mis-merged")
	}
}

// TestHierSumWorkerCounts: sixteen leaves of rowPartMin/2 entries, so
// every worker count above one, GOMAXPROCS's included, cuts row ranges.
func TestHierSumWorkerCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	leaves := make([]*Matrix, 16)
	for i := range leaves {
		leaves[i] = FromEntries(randomEntries(rng, rowPartMin/2, 1<<16, 1<<12))
	}
	want := flatSum(leaves)
	for _, w := range []int{-1, 0, 1, 2, 8, 64} {
		if !Equal(HierSum(leaves, w), want) {
			t.Errorf("workers=%d produced a different sum", w)
		}
	}
}

// TestSumByRowsWorkerSweep: the merge cut into row ranges equals the
// single merge — shard-sized inputs with a few very heavy rows (a cut
// may not split a row), every worker count. Two inputs of fractions,
// which two-way row merges add in one order only, against the single
// merge; two to eight inputs of counts, which add exactly in any order,
// against the flat sum.
func TestSumByRowsWorkerSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	shard := func(fractional bool) *Matrix {
		es := randomEntries(rng, 3*rowPartMin, 1<<16, 1<<12)
		for j := range es {
			if j%3 == 0 {
				es[j].Row = uint32(j % 5) // five rows hold a third of the entries
			}
			if fractional {
				es[j].Val = rng.Float64()
			}
		}
		return FromEntries(es)
	}
	fracs := []*Matrix{shard(true), shard(true)}
	want := sumByRows(fracs, 1)
	for _, workers := range []int{2, 3, 5, 8, 64} {
		got := sumByRows(fracs, workers)
		if !Equal(got, want) || got.rowPtr[len(got.rows)] != int64(len(got.cols)) {
			t.Errorf("fractions: %d row ranges differ from the single merge", workers)
		}
	}
	counts := make([]*Matrix, 8)
	for i := range counts {
		counts[i] = shard(false)
	}
	for k := 2; k <= len(counts); k++ {
		want := flatSum(counts[:k])
		for _, workers := range []int{1, 2, 3, 5, 8} {
			got := HierSum(counts[:k], workers)
			if !Equal(got, want) || got.rowPtr[len(got.rows)] != int64(len(got.cols)) {
				t.Errorf("%d shards of counts: HierSum on %d workers differs from the flat sum", k, workers)
			}
		}
	}
}

func TestAccumulatorPreservesTotal(t *testing.T) {
	// NV conservation: sum of the window matrix equals triples ingested.
	acc := NewAccumulator(64)
	rng := rand.New(rand.NewSource(23))
	const n = 1000
	for i := 0; i < n; i++ {
		acc.Add(rng.Uint32()%100, rng.Uint32()%100)
	}
	if acc.Leaves() != n/64+1 {
		t.Errorf("Leaves() = %d, want %d full leaves and the open tail", acc.Leaves(), n/64+1)
	}
	m := acc.Finish()
	if m.Sum() != n {
		t.Errorf("window sum = %g, want %d", m.Sum(), n)
	}
}

func TestAccumulatorMatchesDirectBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	es := randomEntries(rng, 2000, 80, 80)
	acc := NewAccumulator(97) // deliberately non-divisor leaf size
	for _, e := range es {
		for range int(e.Val) { // e.Val packets
			acc.Add(e.Row, e.Col)
		}
	}
	if !Equal(acc.Finish(), FromEntries(es)) {
		t.Error("accumulator result differs from direct build")
	}
}

func TestAccumulatorReusableAfterFinish(t *testing.T) {
	acc := NewAccumulator(10)
	acc.Add(1, 1)
	first := acc.Finish()
	acc.Add(2, 2)
	acc.Add(2, 2)
	second := acc.Finish()
	if first.Sum() != 1 || second.Sum() != 2 {
		t.Error("accumulator state leaked across Finish")
	}
	if second.At(1, 1) != 0 {
		t.Error("second window contains first window's traffic")
	}
}

func TestAccumulatorPanicsOnBadLeafSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewAccumulator(0) did not panic")
		}
	}()
	NewAccumulator(0)
}

func BenchmarkHierSum16Leaves(b *testing.B) {
	rng := rand.New(rand.NewSource(30))
	leaves := make([]*Matrix, 16)
	for i := range leaves {
		leaves[i] = FromEntries(randomEntries(rng, 1<<14, 1<<16, 1<<16))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		HierSum(leaves, 0)
	}
}
