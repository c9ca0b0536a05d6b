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
// A Matrix returned by Build, FromEntries or HierSum is
// "published": it is immutable from that point on and may be shared
// freely across goroutines. Published matrices may alias each other's
// storage — HierSum returns an operand unchanged when every other
// operand is empty — which is safe precisely because published matrices
// are never written again.
//
// The one exception is the scratch destination of the k-way merge
// (sumInto): its storage is owned by the merge, is rewritten on every
// call, and must not be published (retained, shared, or returned) while
// it can still be reused. HierSum always copies pooled scratch into a
// fresh published Matrix before handing it out, so no pooled buffer
// ever escapes through the aliasing shortcut above.
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

// FromEntries builds a matrix from triples, summing duplicates. The input
// slice is not retained.
func FromEntries(entries []Entry) *Matrix {
	b := NewBuilder(len(entries))
	for _, e := range entries {
		b.Add(e.Row, e.Col, e.Val)
	}
	return b.Build()
}

// Builder accumulates (row, col, value) triples with duplicate summing,
// then compiles them into an immutable Matrix: the general
// build-from-tuples step behind FromEntries, PermuteFunc and FlatSum.
// The engine's leaves hold unit packet counts and take the keys-only
// path of Accumulator instead.
//
// The builder is a triple buffer: Add appends packed (key, value) pairs
// to flat slices, and Build radix-sorts by key, coalesces duplicates in
// place, and compiles the DCSR arrays directly. Build resets the builder
// but retains every internal buffer, so a long-lived builder allocates
// nothing per build at steady state beyond the published Matrix itself.
// Builders are not safe for concurrent use.
type Builder struct {
	keys []uint64  // packed (row, col), in arrival order until Build
	vals []float64 // parallel to keys
	kbuf []uint64  // radix scratch, retained across Build calls
	vbuf []float64 // radix scratch, retained across Build calls
}

// NewBuilder returns a Builder with capacity hint n.
func NewBuilder(n int) *Builder {
	return &Builder{
		keys: make([]uint64, 0, n),
		vals: make([]float64, 0, n),
	}
}

func key(row, col uint32) uint64 { return uint64(row)<<32 | uint64(col) }

// Add accumulates v at (row, col).
func (b *Builder) Add(row, col uint32, v float64) {
	b.keys = append(b.keys, key(row, col))
	b.vals = append(b.vals, v)
}

// Len reports the number of triples appended since the last Build.
// Duplicate (row, col) pairs are coalesced only at Build time, so this
// is an upper bound on the NNZ of the matrix Build will produce.
func (b *Builder) Len() int { return len(b.keys) }

// Build compiles the accumulated triples into a published Matrix and
// resets the builder, retaining its buffers. The only allocations are
// the exact-size arrays of the returned matrix.
func (b *Builder) Build() *Matrix {
	n := len(b.keys)
	if n == 0 {
		return &Matrix{}
	}
	b.kbuf = radix.Grow(b.kbuf, n)
	b.vbuf = radix.Grow(b.vbuf, n)
	keys, vals := radix.SortPairs(b.keys, b.vals, b.kbuf, b.vbuf)

	// Coalesce duplicate keys in place, summing values.
	u := 0
	for i := 0; i < n; {
		k, v := keys[i], vals[i]
		for i++; i < n && keys[i] == k; i++ {
			v += vals[i]
		}
		keys[u], vals[u] = k, v
		u++
	}
	b.keys = b.keys[:0]
	b.vals = b.vals[:0]
	return compile(keys[:u], vals[:u])
}

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
