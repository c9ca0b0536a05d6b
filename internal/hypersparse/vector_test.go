package hypersparse

import (
	"sort"
	"testing"
)

// vectorOf returns the row sums of a one-column matrix holding m: the
// only way a Vector is made.
func vectorOf(m map[uint32]float64) *Vector {
	es := make([]Entry, 0, len(m))
	for id, v := range m {
		es = append(es, Entry{Row: id, Val: v})
	}
	return FromEntries(es).RowSums()
}

func TestVectorFromMapSorted(t *testing.T) {
	v := vectorOf(map[uint32]float64{5: 1, 1: 2, 9: 3})
	ids := v.IDs()
	if !sort.SliceIsSorted(ids, func(i, j int) bool { return ids[i] < ids[j] }) {
		t.Error("ids not sorted")
	}
	if v.At(1) != 2 || v.At(5) != 1 || v.At(9) != 3 || v.At(4) != 0 {
		t.Error("At returned wrong values")
	}
}

func TestIterateEarlyStopVector(t *testing.T) {
	v := vectorOf(map[uint32]float64{1: 1, 2: 2, 3: 3})
	n := 0
	v.Iterate(func(uint32, float64) bool {
		n++
		return false
	})
	if n != 1 {
		t.Errorf("early stop visited %d, want 1", n)
	}
}
