package hypersparse

import "sort"

// Vector is an immutable sparse vector over the uint32 index space:
// sorted distinct ids with parallel values. It is the result type of
// Matrix.RowSums (A·1), the paper's per-source packet counts.
type Vector struct {
	ids  []uint32
	vals []float64
}

// NNZ returns the number of stored elements.
func (v *Vector) NNZ() int { return len(v.ids) }

// IDs returns the sorted element ids; the slice is owned by the vector.
func (v *Vector) IDs() []uint32 { return v.ids }

// At returns the value at id, or 0 if absent.
func (v *Vector) At(id uint32) float64 {
	i := sort.Search(len(v.ids), func(i int) bool { return v.ids[i] >= id })
	if i == len(v.ids) || v.ids[i] != id {
		return 0
	}
	return v.vals[i]
}

// Iterate calls fn for each (id, value) in increasing id order; stops if
// fn returns false.
func (v *Vector) Iterate(fn func(id uint32, val float64) bool) {
	for i, id := range v.ids {
		if !fn(id, v.vals[i]) {
			return
		}
	}
}
