package hypersparse

// merge.go implements the pooled, allocation-free merge kernel of the
// hierarchical summation hot path: a k-way heap merge over any number
// of leaves (sumInto). It writes into a scratch Matrix whose arrays are
// grown but never reallocated once warm, which is what lets the engine
// sum a 2^13-leaf window with O(1) allocations after warmup instead of
// O(levels·nnz).

import "sync"

// reset truncates the matrix's arrays, retaining capacity, so it can be
// reused as a merge destination.
func (m *Matrix) reset() {
	m.rows = m.rows[:0]
	m.rowPtr = m.rowPtr[:0]
	m.cols = m.cols[:0]
	m.vals = m.vals[:0]
}

// publish returns an immutable exact-size copy of a scratch matrix. The
// scratch keeps its (larger) buffers for reuse; the copy is safe to
// retain indefinitely. The append form allocates without the redundant
// zeroing a make+copy pair would pay.
func (m *Matrix) publish() *Matrix {
	return &Matrix{
		rows:   append([]uint32(nil), m.rows...),
		rowPtr: append([]int64(nil), m.rowPtr...),
		cols:   append([]uint32(nil), m.cols...),
		vals:   append([]float64(nil), m.vals...),
	}
}

// leafCursor tracks one input matrix's position in the k-way row merge.
type leafCursor struct {
	mat *Matrix
	ri  int // current row index
}

func (c leafCursor) row() uint32 { return c.mat.rows[c.ri] }

// colSeg is one row's (cols, vals) span contributed by one leaf.
type colSeg struct {
	cols []uint32
	vals []float64
	i    int // cursor within the segment
}

// mergeScratch bundles everything one k-way merge needs: the growable
// destination matrix plus the heaps and segment list, all retained
// across merges through scratchPool.
type mergeScratch struct {
	m       Matrix
	rowHeap []leafCursor
	segs    []colSeg
	colHeap []int32 // heap of seg indices, keyed by the seg's current col
}

var scratchPool = sync.Pool{New: func() interface{} { return new(mergeScratch) }}

// sumInto k-way-merges the leaves into dst, overwriting dst's previous
// contents. Rows are drawn from a binary heap of per-leaf cursors, so
// cost is O(total nnz · log k) with no comparator calls. dst is scratch
// the caller owns: its arrays are grown as needed and retained across
// calls, it must not alias any leaf (this panics), and it must not be
// published while it may still be rewritten — see the Matrix ownership
// contract. nil leaves are treated as empty.
func sumInto(s *mergeScratch, dst *Matrix, leaves []*Matrix) {
	// Check aliasing before touching dst, so the panic fires with the
	// destination still intact.
	for _, l := range leaves {
		if l == dst {
			panic("hypersparse: sumInto destination aliases a leaf")
		}
	}
	dst.reset()
	s.rowHeap = s.rowHeap[:0]
	for _, l := range leaves {
		if l != nil && len(l.rows) > 0 {
			s.rowHeap = append(s.rowHeap, leafCursor{mat: l})
		}
	}
	h := s.rowHeap
	for i := len(h)/2 - 1; i >= 0; i-- {
		rowHeapDown(h, i)
	}
	for len(h) > 0 {
		row := h[0].row()
		// Collect every leaf whose cursor sits on this row.
		s.segs = s.segs[:0]
		for len(h) > 0 && h[0].row() == row {
			c := h[0]
			lo, hi := c.mat.rowPtr[c.ri], c.mat.rowPtr[c.ri+1]
			if hi > lo { // deserialized matrices may carry empty rows
				s.segs = append(s.segs, colSeg{cols: c.mat.cols[lo:hi], vals: c.mat.vals[lo:hi]})
			}
			if c.ri+1 < len(c.mat.rows) {
				h[0].ri++
				rowHeapDown(h, 0)
			} else {
				h[0] = h[len(h)-1]
				h = h[:len(h)-1]
				if len(h) > 0 {
					rowHeapDown(h, 0)
				}
			}
		}
		switch len(s.segs) {
		case 0: // every contribution was an empty row
		case 1:
			dst.appendRow(row, s.segs[0].cols, s.segs[0].vals)
		default:
			s.mergeRow(dst, row)
		}
	}
	// Clear the leaf references held beyond the slice lengths in the
	// retained backing arrays: a pooled scratch must not pin a whole
	// window's leaves (their matrices and cols/vals storage) in memory
	// until its next reuse.
	clear(h[:cap(h)])
	s.rowHeap = h[:0]
	clear(s.segs[:cap(s.segs)])
	s.segs = s.segs[:0]
	dst.rowPtr = append(dst.rowPtr, int64(len(dst.cols)))
}

// mergeRow merges the collected column segments for one row into dst,
// summing values at equal columns. Two segments — the dominant case
// when merging pairs of leaves or pairs of group results — take a
// direct two-way merge; more take a heap over segment heads.
func (s *mergeScratch) mergeRow(dst *Matrix, row uint32) {
	if len(s.segs) == 2 {
		dst.appendMergedRow(row,
			s.segs[0].cols, s.segs[0].vals,
			s.segs[1].cols, s.segs[1].vals)
		return
	}
	dst.rows = append(dst.rows, row)
	dst.rowPtr = append(dst.rowPtr, int64(len(dst.cols)))
	s.colHeap = s.colHeap[:0]
	for i := range s.segs {
		s.segs[i].i = 0
		s.colHeap = append(s.colHeap, int32(i))
	}
	ch := s.colHeap
	for i := len(ch)/2 - 1; i >= 0; i-- {
		s.colHeapDown(ch, i)
	}
	for len(ch) > 0 {
		sg := &s.segs[ch[0]]
		col := sg.cols[sg.i]
		val := sg.vals[sg.i]
		sg.i++
		if sg.i < len(sg.cols) {
			s.colHeapDown(ch, 0)
		} else {
			ch[0] = ch[len(ch)-1]
			ch = ch[:len(ch)-1]
			if len(ch) > 0 {
				s.colHeapDown(ch, 0)
			}
		}
		// Fold in every other segment currently holding the same column.
		for len(ch) > 0 {
			sg = &s.segs[ch[0]]
			if sg.cols[sg.i] != col {
				break
			}
			val += sg.vals[sg.i]
			sg.i++
			if sg.i < len(sg.cols) {
				s.colHeapDown(ch, 0)
			} else {
				ch[0] = ch[len(ch)-1]
				ch = ch[:len(ch)-1]
				if len(ch) > 0 {
					s.colHeapDown(ch, 0)
				}
			}
		}
		dst.cols = append(dst.cols, col)
		dst.vals = append(dst.vals, val)
	}
	s.colHeap = ch[:0]
}

// rowHeapDown restores the min-heap property of the leaf-cursor heap
// from index i downward, comparing current row ids.
func rowHeapDown(h []leafCursor, i int) {
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(h) && h[l].row() < h[min].row() {
			min = l
		}
		if r < len(h) && h[r].row() < h[min].row() {
			min = r
		}
		if min == i {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}

// colHeapDown restores the min-heap property of the segment heap from
// index i downward, comparing each segment's current column id.
func (s *mergeScratch) colHeapDown(h []int32, i int) {
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(h) && s.segs[h[l]].cols[s.segs[h[l]].i] < s.segs[h[min]].cols[s.segs[h[min]].i] {
			min = l
		}
		if r < len(h) && s.segs[h[r]].cols[s.segs[h[r]].i] < s.segs[h[min]].cols[s.segs[h[min]].i] {
			min = r
		}
		if min == i {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}
