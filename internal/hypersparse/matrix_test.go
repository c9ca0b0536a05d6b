package hypersparse

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func randomEntries(rng *rand.Rand, n int, rowSpace, colSpace uint32) []Entry {
	es := make([]Entry, n)
	for i := range es {
		es[i] = Entry{
			Row: rng.Uint32() % rowSpace,
			Col: rng.Uint32() % colSpace,
			Val: float64(1 + rng.Intn(5)),
		}
	}
	return es
}

// refMap is the brute-force reference model for a sparse matrix.
func refMap(es []Entry) map[[2]uint32]float64 {
	m := make(map[[2]uint32]float64)
	for _, e := range es {
		m[[2]uint32{e.Row, e.Col}] += e.Val
	}
	return m
}

func TestEmptyMatrix(t *testing.T) {
	var m Matrix
	if m.NNZ() != 0 || m.NRows() != 0 || m.Sum() != 0 || m.Stats(1).MaxVal != 0 {
		t.Error("zero-value matrix not empty")
	}
	if m.At(1, 2) != 0 {
		t.Error("At on empty matrix != 0")
	}
	m.Iterate(func(Entry) bool {
		t.Error("Iterate visited an entry of an empty matrix")
		return false
	})
}

func TestBuilderSumsDuplicates(t *testing.T) {
	m := FromEntries([]Entry{{7, 9, 1}, {7, 9, 2}, {7, 10, 5}})
	if got := m.At(7, 9); got != 3 {
		t.Errorf("At(7,9) = %g, want 3", got)
	}
	if got := m.At(7, 10); got != 5 {
		t.Errorf("At(7,10) = %g, want 5", got)
	}
	if m.NNZ() != 2 || m.NRows() != 1 {
		t.Errorf("NNZ=%d NRows=%d, want 2,1", m.NNZ(), m.NRows())
	}
}

func TestPaperExampleEntry(t *testing.T) {
	// "3 packets from IPv4 source 1.1.1.1 to IPv4 destination 2.2.2.2
	//  would be represented as At(16843009, 33686018) = 3.0"
	one := Entry{Row: 16843009, Col: 33686018, Val: 1}
	m := FromEntries([]Entry{one, one, one})
	if got := m.At(16843009, 33686018); got != 3.0 {
		t.Errorf("At(16843009, 33686018) = %g, want 3.0", got)
	}
}

func TestMatrixMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	es := randomEntries(rng, 5000, 200, 200)
	m := FromEntries(es)
	ref := refMap(es)
	if m.NNZ() != len(ref) {
		t.Fatalf("NNZ = %d, want %d", m.NNZ(), len(ref))
	}
	var total float64
	for k, v := range ref {
		if got := m.At(k[0], k[1]); got != v {
			t.Fatalf("At(%d,%d) = %g, want %g", k[0], k[1], got, v)
		}
		total += v
	}
	if m.Sum() != total {
		t.Errorf("Sum = %g, want %g", m.Sum(), total)
	}
}

func TestIterateSortedRowMajor(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := FromEntries(randomEntries(rng, 2000, 100, 100))
	var prev Entry
	first := true
	n := 0
	m.Iterate(func(e Entry) bool {
		if !first {
			if e.Row < prev.Row || (e.Row == prev.Row && e.Col <= prev.Col) {
				t.Fatalf("iteration order violated: %v after %v", e, prev)
			}
		}
		prev, first = e, false
		n++
		return true
	})
	if n != m.NNZ() {
		t.Errorf("Iterate visited %d entries, NNZ=%d", n, m.NNZ())
	}
}

func TestIterateEarlyStop(t *testing.T) {
	m := FromEntries([]Entry{{1, 1, 1}, {2, 2, 2}, {3, 3, 3}})
	n := 0
	m.Iterate(func(Entry) bool {
		n++
		return n < 2
	})
	if n != 2 {
		t.Errorf("early stop visited %d entries, want 2", n)
	}
}

func TestEntriesRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		es := randomEntries(rng, 300, 50, 50)
		m := FromEntries(es)
		m2 := FromEntries(m.Entries())
		return Equal(m, m2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestSumInvariantUnderDuplication(t *testing.T) {
	// Total packet count NV must not change however triples are split.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		es := randomEntries(rng, 500, 64, 64)
		whole := FromEntries(es)
		// split each entry into unit triples
		var units []Entry
		for _, e := range es {
			for k := 0; k < int(e.Val); k++ {
				units = append(units, Entry{Row: e.Row, Col: e.Col, Val: 1})
			}
		}
		split := FromEntries(units)
		return whole.Sum() == split.Sum() && Equal(whole, split)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestStringSummary(t *testing.T) {
	m := FromEntries([]Entry{{1, 2, 3}})
	want := "hypersparse.Matrix{rows: 1, nnz: 1, sum: 3}"
	if got := m.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}
