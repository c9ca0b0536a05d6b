// Package hypersparse implements GraphBLAS-style hypersparse traffic
// matrices over a 2^32 x 2^32 index space, following the representation
// the paper uses for CAIDA Telescope windows: uint32 row (source) and
// column (destination) indices with floating-point packet counts.
//
// A matrix is "hypersparse" when the number of non-empty rows is far
// smaller than the row dimension, so the doubly-compressed (DCSR) layout
// stores only the sorted list of occupied rows. All quantities of the
// paper's Table II are computed from this layout (see package netquant),
// and all are invariant under row/column permutation, which is what makes
// the pipeline safe to run on CryptoPAN-anonymized data.
package hypersparse

import (
	"fmt"
	"sort"

	"repro/internal/radix"
)

// Entry is a single (row, col, value) triple: value packets from source
// row to destination col.
type Entry struct {
	Row, Col uint32
	Val      float64
}

// Matrix is a doubly-compressed sparse row (DCSR) matrix. The zero
// value is an empty matrix ready to use.
//
// # Ownership and aliasing contract
//
// A Matrix returned by FromEntries, an Accumulator or HierSum is
// "published": it is immutable from that point on and may be shared
// freely across goroutines. Published matrices may alias each other's
// storage — HierSum returns an operand unchanged when every other
// operand is empty — which is safe precisely because published matrices
// are never written again.
//
// The one exception is the scratch destination of the k-way merge
// (sumInto): its storage is owned by the merge, is rewritten on every
// call, and must not be published (retained, shared, or returned) while
// it can still be reused. HierSum merges each row range into pooled
// scratch and copies the ranges side by side into a fresh published
// Matrix, so no pooled buffer ever escapes through the aliasing
// shortcut above.
type Matrix struct {
	rows   []uint32  // sorted distinct non-empty row ids
	rowPtr []int64   // len(rows)+1 offsets into cols/vals
	cols   []uint32  // column ids, sorted within each row
	vals   []float64 // parallel to cols
}

// NNZ returns the number of stored entries (the paper's "unique links"
// when values are packet counts).
func (m *Matrix) NNZ() int { return len(m.cols) }

// NRows returns the number of non-empty rows (unique sources).
func (m *Matrix) NRows() int { return len(m.rows) }

// Sum returns the total of all values (the paper's NV, valid packets,
// i.e. 1^T A 1).
func (m *Matrix) Sum() float64 {
	var s float64
	for _, v := range m.vals {
		s += v
	}
	return s
}

// At returns the stored value at (row, col), or 0 if absent.
func (m *Matrix) At(row, col uint32) float64 {
	ri := sort.Search(len(m.rows), func(i int) bool { return m.rows[i] >= row })
	if ri == len(m.rows) || m.rows[ri] != row {
		return 0
	}
	lo, hi := m.rowPtr[ri], m.rowPtr[ri+1]
	cs := m.cols[lo:hi]
	ci := sort.Search(len(cs), func(i int) bool { return cs[i] >= col })
	if ci == len(cs) || cs[ci] != col {
		return 0
	}
	return m.vals[lo+int64(ci)]
}

// Rows returns the sorted ids of non-empty rows. The returned slice is
// owned by the matrix and must not be modified.
func (m *Matrix) Rows() []uint32 { return m.rows }

// Iterate calls fn for every stored entry in row-major order. Iteration
// stops early if fn returns false.
func (m *Matrix) Iterate(fn func(Entry) bool) {
	for ri, row := range m.rows {
		for k := m.rowPtr[ri]; k < m.rowPtr[ri+1]; k++ {
			if !fn(Entry{Row: row, Col: m.cols[k], Val: m.vals[k]}) {
				return
			}
		}
	}
}

// Entries returns all stored entries in row-major order.
func (m *Matrix) Entries() []Entry {
	out := make([]Entry, 0, m.NNZ())
	m.Iterate(func(e Entry) bool {
		out = append(out, e)
		return true
	})
	return out
}

// String summarizes the matrix shape for debugging.
func (m *Matrix) String() string {
	return fmt.Sprintf("hypersparse.Matrix{rows: %d, nnz: %d, sum: %g}",
		m.NRows(), m.NNZ(), m.Sum())
}

// FromEntries builds a matrix from triples, summing duplicates: the
// packed keys are radix-sorted with their values, each run of equal keys
// becomes one cell holding the run's sum in input order, and the cells
// compile to DCSR. The input slice is not retained. The engine's leaves
// hold unit packet counts and take the keys-only path of Accumulator
// instead.
func FromEntries(entries []Entry) *Matrix {
	n := len(entries)
	keys := make([]uint64, n)
	vals := make([]float64, n)
	for i, e := range entries {
		keys[i], vals[i] = key(e.Row, e.Col), e.Val
	}
	keys, vals = radix.SortPairs(keys, vals, make([]uint64, n), make([]float64, n))
	u := 0
	for i := 0; i < n; u++ {
		k, v := keys[i], vals[i]
		for i++; i < n && keys[i] == k; i++ {
			v += vals[i]
		}
		keys[u], vals[u] = k, v
	}
	return compile(keys[:u], vals[:u])
}

func key(row, col uint32) uint64 { return uint64(row)<<32 | uint64(col) }

// compile publishes sorted distinct packed keys and their values as a
// DCSR matrix of exact-size arrays.
func compile(keys []uint64, vals []float64) *Matrix {
	if len(keys) == 0 {
		return &Matrix{}
	}
	r := 1
	for i := 1; i < len(keys); i++ {
		if keys[i]>>32 != keys[i-1]>>32 {
			r++
		}
	}
	m := &Matrix{
		rows:   make([]uint32, 0, r),
		rowPtr: make([]int64, 0, r+1),
		cols:   make([]uint32, len(keys)),
		vals:   append([]float64(nil), vals...),
	}
	for i, k := range keys {
		row := uint32(k >> 32)
		if i == 0 || row != uint32(keys[i-1]>>32) {
			m.rows = append(m.rows, row)
			m.rowPtr = append(m.rowPtr, int64(i))
		}
		m.cols[i] = uint32(k)
	}
	m.rowPtr = append(m.rowPtr, int64(len(keys)))
	return m
}
