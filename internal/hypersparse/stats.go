package hypersparse

// stats.go implements the fused reductions of the paper's Table II: one
// row-major DCSR pass yields every row-axis and whole-matrix aggregate,
// and a pooled radix scan over the column ids — partitioned by column
// across workers when the matrix is large — yields the column-axis
// aggregates; no intermediate vector, map, or (on one worker) per-call
// allocation.

import (
	"context"
	"runtime"
	"sync"

	"repro/internal/pool"
	"repro/internal/radix"
)

// Stats bundles every aggregate of the paper's Table II computable from
// one matrix: 1^T A 1, the structural counts, and the per-axis maxima.
// netquant maps these onto the table's named quantities.
type Stats struct {
	Sum    float64 // 1^T A 1: total value (valid packets NV)
	MaxVal float64 // max(A): maximum link packets
	NNZ    int     // 1^T |A|0 1: stored entries (unique links)
	NRows  int     // unique sources
	NCols  int     // unique destinations

	MaxRowSum float64 // max(A 1): maximum source packets
	MaxRowDeg float64 // max(|A|0 1): maximum source fan-out
	MaxColSum float64 // max(1^T A): maximum destination packets
	MaxColDeg float64 // max(1^T |A|0): maximum destination fan-in
}

// colPartMin is the fewest stored entries worth a column partition of
// their own: below it the sort is cheaper than handing it to a worker.
const colPartMin = 1 << 15

// Stats computes all Table II aggregates in one fused row-major pass
// plus a pooled column scan. The column scan is split into up to
// workers partitions of the column ids (<= 0 uses GOMAXPROCS; at least
// colPartMin entries each), one pool job per partition. Every column
// lies in exactly one partition and its cells are still summed in
// row-major order, and the partitions combine by integer sum and max,
// so the result is bit-identical at every worker count. With one
// partition nothing is allocated once the column scratch pool is warm.
func (m *Matrix) Stats(workers int) Stats {
	s := Stats{NNZ: len(m.cols), NRows: len(m.rows)}
	for ri := range m.rows {
		lo, hi := m.rowPtr[ri], m.rowPtr[ri+1]
		var rowSum float64
		for k := lo; k < hi; k++ {
			v := m.vals[k]
			rowSum += v
			if v > s.MaxVal {
				s.MaxVal = v
			}
		}
		s.Sum += rowSum
		if rowSum > s.MaxRowSum {
			s.MaxRowSum = rowSum
		}
		if deg := float64(hi - lo); deg > s.MaxRowDeg {
			s.MaxRowDeg = deg
		}
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	parts := max(1, min(workers, len(m.cols)/colPartMin))
	if parts == 1 {
		s.addCols(m, 0, 1)
		return s
	}
	partial := make([]Stats, parts)
	_ = pool.Each(context.Background(), parts, parts, func(_ context.Context, p int) error {
		partial[p].addCols(m, p, parts)
		return nil
	})
	for _, c := range partial {
		s.NCols += c.NCols
		s.MaxColSum = max(s.MaxColSum, c.MaxColSum)
		s.MaxColDeg = max(s.MaxColDeg, c.MaxColDeg)
	}
	return s
}

// addCols folds partition part of parts of m's columns into the
// column-axis fields of s.
func (s *Stats) addCols(m *Matrix, part, parts int) {
	m.colScan(part, parts, func(_ uint32, sum float64, nnz int) {
		s.NCols++
		if sum > s.MaxColSum {
			s.MaxColSum = sum
		}
		if d := float64(nnz); d > s.MaxColDeg {
			s.MaxColDeg = d
		}
	})
}

// RowScan calls fn once per non-empty row in increasing row order with
// the row's id, value total (its A·1 element), and stored-entry count
// (its |A|0·1 element). It allocates nothing.
func (m *Matrix) RowScan(fn func(row uint32, sum float64, nnz int)) {
	for ri, row := range m.rows {
		lo, hi := m.rowPtr[ri], m.rowPtr[ri+1]
		var sum float64
		for k := lo; k < hi; k++ {
			sum += m.vals[k]
		}
		fn(row, sum, int(hi-lo))
	}
}

// colScratch is the pooled buffer set colScan sorts column ids into.
type colScratch struct {
	keys []uint32
	vals []float64
	kbuf []uint32
	vbuf []float64
}

var colPool = sync.Pool{New: func() interface{} { return new(colScratch) }}

// colPart assigns a column id to one of parts partitions by a
// multiplicative hash, so ids that share a prefix (darkspace
// destinations) or a stride still spread evenly.
func colPart(col uint32, parts int) int {
	return int(uint64(col*0x9E3779B1) * uint64(parts) >> 32)
}

// colScan calls fn once per distinct column of partition part of parts
// in increasing column order with the column's id, value total (its
// 1^T·A element), and stored-entry count (its 1^T·|A|0 element). The
// columns are coalesced with a pooled radix sort, so a warm pool makes
// the scan allocation-free; the stable sort keeps each column's cells in
// row-major order, so a column's sum is reproducible and does not depend
// on how many partitions there are.
func (m *Matrix) colScan(part, parts int, fn func(col uint32, sum float64, nnz int)) {
	if len(m.cols) == 0 {
		return
	}
	s := colPool.Get().(*colScratch)
	defer colPool.Put(s)
	if parts == 1 {
		s.keys = append(s.keys[:0], m.cols...)
		s.vals = append(s.vals[:0], m.vals...)
	} else {
		// Store every cell at the write cursor and advance it only past
		// this partition's: no branch to mispredict on a hashed id.
		keys, vals := radix.Grow(s.keys, len(m.cols)), radix.Grow(s.vals, len(m.cols))
		n := 0
		for i, c := range m.cols {
			keys[n], vals[n] = c, m.vals[i]
			if colPart(c, parts) == part {
				n++
			}
		}
		s.keys, s.vals = keys[:n], vals[:n]
	}
	n := len(s.keys)
	s.kbuf = radix.Grow(s.kbuf, n)
	s.vbuf = radix.Grow(s.vbuf, n)
	keys, vals := radix.SortPairs(s.keys, s.vals, s.kbuf, s.vbuf)
	for i := 0; i < n; {
		col := keys[i]
		sum := vals[i]
		cnt := 1
		for i++; i < n && keys[i] == col; i++ {
			sum += vals[i]
			cnt++
		}
		fn(col, sum, cnt)
	}
}
