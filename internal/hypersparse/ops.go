package hypersparse

// ops.go holds the row appenders the k-way merge writes through, index
// permutation and exact comparison.

func (m *Matrix) appendRow(row uint32, cols []uint32, vals []float64) {
	m.rows = append(m.rows, row)
	m.rowPtr = append(m.rowPtr, int64(len(m.cols)))
	m.cols = append(m.cols, cols...)
	m.vals = append(m.vals, vals...)
}

func (m *Matrix) appendMergedRow(row uint32, ac []uint32, av []float64, bc []uint32, bv []float64) {
	m.rows = append(m.rows, row)
	m.rowPtr = append(m.rowPtr, int64(len(m.cols)))
	i, j := 0, 0
	for i < len(ac) || j < len(bc) {
		switch {
		case j == len(bc) || (i < len(ac) && ac[i] < bc[j]):
			m.cols = append(m.cols, ac[i])
			m.vals = append(m.vals, av[i])
			i++
		case i == len(ac) || bc[j] < ac[i]:
			m.cols = append(m.cols, bc[j])
			m.vals = append(m.vals, bv[j])
			j++
		default:
			m.cols = append(m.cols, ac[i])
			m.vals = append(m.vals, av[i]+bv[j])
			i++
			j++
		}
	}
}

// PermuteFunc relabels every index through fn, which must be injective on
// the ids present (a permutation of the index space, e.g. a CryptoPAN
// anonymizer). Row and column spaces are mapped with the same function,
// matching anonymization of IP addresses.
func (m *Matrix) PermuteFunc(fn func(uint32) uint32) *Matrix {
	es := m.Entries()
	for i := range es {
		es[i].Row, es[i].Col = fn(es[i].Row), fn(es[i].Col)
	}
	return FromEntries(es)
}

// Equal reports whether two matrices hold exactly the same entries.
func Equal(a, b *Matrix) bool {
	if a.NNZ() != b.NNZ() || a.NRows() != b.NRows() {
		return false
	}
	for i := range a.rows {
		if a.rows[i] != b.rows[i] || a.rowPtr[i] != b.rowPtr[i] {
			return false
		}
	}
	for i := range a.cols {
		if a.cols[i] != b.cols[i] || a.vals[i] != b.vals[i] {
			return false
		}
	}
	return true
}
