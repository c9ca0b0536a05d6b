package hypersparse

// semiring.go implements the GraphBLAS operation set over configurable
// semirings [45], [46]: matrix-matrix and matrix-vector multiply,
// elementwise add/multiply, apply, select, and reduce. Table II's
// formulas are special cases (e.g. A·1 is MxV over plus-times with a
// dense-ones vector), and the correlation analysis uses the structural
// (or-and) semiring for set intersection at matrix scale.

// BinaryOp combines two values.
type BinaryOp func(a, b float64) float64

// UnaryOp transforms one value.
type UnaryOp func(a float64) float64

// Semiring packages the (⊕, ⊗) pair with the additive identity. The
// multiply is applied to matched entries; add accumulates products.
type Semiring struct {
	Name     string
	Add      BinaryOp
	Mul      BinaryOp
	Identity float64
}

// Standard GraphBLAS semirings used by the pipeline.
var (
	// PlusTimes is ordinary arithmetic: packet counting.
	PlusTimes = Semiring{
		Name:     "plus-times",
		Add:      func(a, b float64) float64 { return a + b },
		Mul:      func(a, b float64) float64 { return a * b },
		Identity: 0,
	}
	// OrAnd is the structural semiring: set membership.
	OrAnd = Semiring{
		Name: "or-and",
		Add: func(a, b float64) float64 {
			if a != 0 || b != 0 {
				return 1
			}
			return 0
		},
		Mul: func(a, b float64) float64 {
			if a != 0 && b != 0 {
				return 1
			}
			return 0
		},
		Identity: 0,
	}
	// MaxPlus is the tropical semiring: longest/heaviest path style
	// aggregations (e.g. peak per-link rates).
	MaxPlus = Semiring{
		Name: "max-plus",
		Add: func(a, b float64) float64 {
			if a > b {
				return a
			}
			return b
		},
		Mul:      func(a, b float64) float64 { return a + b },
		Identity: negInf,
	}
)

const negInf = -1.7976931348623157e308 // math.MaxFloat64 negated; avoids a math import here

// MxV multiplies the matrix by a sparse vector over the semiring:
// out[i] = ⊕_j A(i,j) ⊗ v[j], keeping only rows that touch at least one
// stored element of v.
func (m *Matrix) MxV(s Semiring, v *Vector) *Vector {
	out := make(map[uint32]float64)
	for ri, row := range m.rows {
		acc := s.Identity
		hit := false
		for k := m.rowPtr[ri]; k < m.rowPtr[ri+1]; k++ {
			x := v.At(m.cols[k])
			if x == 0 {
				continue
			}
			acc = s.Add(acc, s.Mul(m.vals[k], x))
			hit = true
		}
		if hit {
			out[row] = acc
		}
	}
	return VectorFromMap(out)
}

// MxVDense multiplies by an implicit dense vector of the given constant
// value (the 1-vector of Table II): out[i] = ⊕_j A(i,j) ⊗ c. Every
// non-empty row produces an element.
func (m *Matrix) MxVDense(s Semiring, c float64) *Vector {
	ids := make([]uint32, len(m.rows))
	vals := make([]float64, len(m.rows))
	copy(ids, m.rows)
	for ri := range m.rows {
		acc := s.Identity
		for k := m.rowPtr[ri]; k < m.rowPtr[ri+1]; k++ {
			acc = s.Add(acc, s.Mul(m.vals[k], c))
		}
		vals[ri] = acc
	}
	return &Vector{ids: ids, vals: vals}
}

// MxM multiplies two matrices over the semiring using the row-by-row
// Gustavson algorithm: out(i,k) = ⊕_j A(i,j) ⊗ B(j,k).
func MxM(s Semiring, a, b *Matrix) *Matrix {
	// Index B's rows for O(1) row lookup during the sweep of A.
	bRow := make(map[uint32]int, len(b.rows))
	for i, r := range b.rows {
		bRow[r] = i
	}
	// Each (arow, col) cell is assigned exactly once, so the radix
	// builder's duplicate-summing never fires and assignment semantics
	// are preserved.
	builder := NewBuilder(a.NNZ())
	acc := make(map[uint32]float64)
	for ai, arow := range a.rows {
		clear(acc)
		for k := a.rowPtr[ai]; k < a.rowPtr[ai+1]; k++ {
			bj, ok := bRow[a.cols[k]]
			if !ok {
				continue
			}
			av := a.vals[k]
			for t := b.rowPtr[bj]; t < b.rowPtr[bj+1]; t++ {
				prod := s.Mul(av, b.vals[t])
				if old, ok := acc[b.cols[t]]; ok {
					acc[b.cols[t]] = s.Add(old, prod)
				} else {
					acc[b.cols[t]] = s.Add(s.Identity, prod)
				}
			}
		}
		for col, v := range acc {
			builder.Add(arow, col, v)
		}
	}
	return builder.Build()
}

// EWiseMult returns the elementwise (Hadamard) product over Mul: entries
// present in both matrices, combined; the structural intersection when
// used with OrAnd.
func EWiseMult(s Semiring, a, b *Matrix) *Matrix {
	builder := NewBuilder(min(a.NNZ(), b.NNZ()))
	bRow := make(map[uint32]int, len(b.rows))
	for i, r := range b.rows {
		bRow[r] = i
	}
	for ai, arow := range a.rows {
		bi, ok := bRow[arow]
		if !ok {
			continue
		}
		// Merge the two sorted column ranges.
		i, j := a.rowPtr[ai], b.rowPtr[bi]
		for i < a.rowPtr[ai+1] && j < b.rowPtr[bi+1] {
			switch {
			case a.cols[i] < b.cols[j]:
				i++
			case a.cols[i] > b.cols[j]:
				j++
			default:
				builder.Add(arow, a.cols[i], s.Mul(a.vals[i], b.vals[j]))
				i++
				j++
			}
		}
	}
	return builder.Build()
}

// EWiseAdd returns the elementwise sum over Add: the union of the
// patterns (Add(a, b) for this package's arithmetic Add is the existing
// Add function; EWiseAdd generalizes it to any semiring).
func EWiseAdd(s Semiring, a, b *Matrix) *Matrix {
	// A two-pointer merge of the operands' (row, col)-sorted entries.
	// Each key reaches the builder exactly once, so its duplicate-summing
	// never fires and matched cells keep the semiring's Add.
	ea, eb := a.Entries(), b.Entries()
	builder := NewBuilder(len(ea) + len(eb))
	for i, j := 0, 0; i < len(ea) || j < len(eb); {
		switch {
		case j == len(eb) || i < len(ea) && key(ea[i].Row, ea[i].Col) < key(eb[j].Row, eb[j].Col):
			builder.Add(ea[i].Row, ea[i].Col, ea[i].Val)
			i++
		case i == len(ea) || key(eb[j].Row, eb[j].Col) < key(ea[i].Row, ea[i].Col):
			builder.Add(eb[j].Row, eb[j].Col, eb[j].Val)
			j++
		default:
			builder.Add(ea[i].Row, ea[i].Col, s.Add(ea[i].Val, eb[j].Val))
			i++
			j++
		}
	}
	return builder.Build()
}

// Apply returns a new matrix with fn applied to every stored value.
// Entries mapping to 0 are retained (GraphBLAS does not drop explicit
// zeros on apply); use Select to drop.
func (m *Matrix) Apply(fn UnaryOp) *Matrix {
	out := &Matrix{
		rows:   m.rows,
		rowPtr: m.rowPtr,
		cols:   m.cols,
		vals:   make([]float64, len(m.vals)),
	}
	for i, v := range m.vals {
		out.vals[i] = fn(v)
	}
	return out
}

// Select returns the submatrix of entries for which keep returns true.
func (m *Matrix) Select(keep func(Entry) bool) *Matrix {
	builder := NewBuilder(m.NNZ())
	m.Iterate(func(e Entry) bool {
		if keep(e) {
			builder.Add(e.Row, e.Col, e.Val)
		}
		return true
	})
	return builder.Build()
}

// Reduce folds every stored value with op starting from init.
func (m *Matrix) Reduce(init float64, op BinaryOp) float64 {
	acc := init
	for _, v := range m.vals {
		acc = op(acc, v)
	}
	return acc
}
