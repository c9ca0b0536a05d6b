package hypersparse

// merge.go implements the pooled, allocation-free merge kernel of the
// hierarchical summation hot path (sumInto): a heap of per-leaf row
// cursors emits the rows in order, and a row held by several leaves is
// merged by one of three means. Two segments take a direct two-way
// merge; three or more narrow ones a heap over segment heads; three or
// more holding at least wideRow entries are gathered in leaf order,
// radix-sorted by column and coalesced, which costs the same per entry
// however many leaves hold the row. Every buffer is grown but never
// reallocated once warm, which is what lets the engine sum a 2^13-leaf
// window with O(1) allocations after warmup instead of O(levels·nnz).

import (
	"slices"
	"sync"

	"repro/internal/radix"
)

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
// It holds its current row id, so the heap compares without reaching
// into the matrix, and the matrix's index, so the heap holds no pointer.
type leafCursor struct {
	row  uint32 // the leaf's current row id
	leaf int32  // index into sumInto's leaves
	ri   int    // current row index
}

// colHead is one segment's entry in mergeRow's heap: its current column
// id beside the segment's index.
type colHead struct {
	col uint32
	seg int32
}

// colSeg is one row's (cols, vals) span contributed by one leaf.
type colSeg struct {
	cols []uint32
	vals []float64
	i    int // cursor within the segment
}

// mergeScratch bundles everything one k-way merge needs: the growable
// destination matrix plus the heaps, the segment list and the wide-row
// sort buffers, all retained across merges through scratchPool.
type mergeScratch struct {
	m       Matrix
	rowHeap []leafCursor
	segs    []colSeg
	colHeap []colHead

	cols, cbuf []uint32  // a wide row's gathered columns and their radix scratch
	vals, vbuf []float64 // parallel to cols, cbuf
}

// wideRow is the fewest entries, over three or more segments, that
// mergeRow sorts rather than heap-merges. Below it the sort's fixed
// cost (a 256-bucket histogram per varying column byte) outweighs the
// heap's log(segments) per entry.
const wideRow = 128

var scratchPool = sync.Pool{New: func() interface{} { return new(mergeScratch) }}

// sumInto k-way-merges the leaves into dst, overwriting dst's previous
// contents. Rows are drawn from a binary heap of per-leaf cursors, at
// O(log k) a row segment, and each row held by several leaves is merged
// by mergeRow; nothing calls a comparator. dst is scratch the caller
// owns: its arrays are grown as needed and retained across calls, it
// must not alias any leaf (this panics), and it must not be published
// while it may still be rewritten — see the Matrix ownership contract.
// nil leaves are treated as empty.
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
	rows, nnz := 0, 0
	for i, l := range leaves {
		if l != nil && len(l.rows) > 0 {
			s.rowHeap = append(s.rowHeap, leafCursor{row: l.rows[0], leaf: int32(i)})
			rows += len(l.rows)
			nnz += int(l.rowPtr[len(l.rows)] - l.rowPtr[0]) // a row range's view shares cols
		}
	}
	// Size dst for the sum with no coalescing at all, so that a cold
	// scratch grows once instead of copying itself at every doubling.
	dst.rows, dst.rowPtr = slices.Grow(dst.rows, rows), slices.Grow(dst.rowPtr, rows+1)
	dst.cols, dst.vals = slices.Grow(dst.cols, nnz), slices.Grow(dst.vals, nnz)
	h := s.rowHeap
	for i := len(h)/2 - 1; i >= 0; i-- {
		rowHeapDown(h, i)
	}
	for len(h) > 0 {
		row := h[0].row
		// Collect every leaf whose cursor sits on this row.
		s.segs = s.segs[:0]
		for len(h) > 0 && h[0].row == row {
			c := &h[0]
			m := leaves[c.leaf]
			lo, hi := m.rowPtr[c.ri], m.rowPtr[c.ri+1]
			if hi > lo { // deserialized matrices may carry empty rows
				s.segs = append(s.segs, colSeg{cols: m.cols[lo:hi], vals: m.vals[lo:hi]})
			}
			if c.ri++; c.ri < len(m.rows) {
				c.row = m.rows[c.ri]
			} else {
				h[0] = h[len(h)-1]
				h = h[:len(h)-1]
			}
			if len(h) > 0 {
				rowHeapDown(h, 0)
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
	s.rowHeap = h[:0]
	// Clear the segments held beyond the slice length in the retained
	// backing array: a pooled scratch must not pin a whole window's
	// leaves (their cols/vals storage) in memory until its next reuse.
	clear(s.segs[:cap(s.segs)])
	s.segs = s.segs[:0]
	dst.rowPtr = append(dst.rowPtr, int64(len(dst.cols)))
}

// mergeRow merges the collected column segments for one row into dst,
// summing values at equal columns. Two segments — the dominant case
// when merging pairs of leaves or pairs of group results — take a
// direct two-way merge; more take a heap over segment heads, or the
// wide-row sort once they hold wideRow entries.
func (s *mergeScratch) mergeRow(dst *Matrix, row uint32) {
	if len(s.segs) == 2 {
		dst.appendMergedRow(row,
			s.segs[0].cols, s.segs[0].vals,
			s.segs[1].cols, s.segs[1].vals)
		return
	}
	n := 0
	for _, sg := range s.segs {
		n += len(sg.cols)
	}
	if n >= wideRow {
		s.sortRow(dst, row, n)
		return
	}
	dst.rows = append(dst.rows, row)
	dst.rowPtr = append(dst.rowPtr, int64(len(dst.cols)))
	s.colHeap = s.colHeap[:0]
	for i := range s.segs {
		s.segs[i].i = 0
		s.colHeap = append(s.colHeap, colHead{col: s.segs[i].cols[0], seg: int32(i)})
	}
	ch := s.colHeap
	for i := len(ch)/2 - 1; i >= 0; i-- {
		colHeapDown(ch, i)
	}
	for len(ch) > 0 {
		col := ch[0].col
		sg := &s.segs[ch[0].seg]
		val := sg.vals[sg.i]
		// Advance the head, then fold in every other segment holding
		// the same column.
		for {
			if sg.i++; sg.i < len(sg.cols) {
				ch[0].col = sg.cols[sg.i]
			} else {
				ch[0] = ch[len(ch)-1]
				ch = ch[:len(ch)-1]
			}
			if len(ch) > 0 {
				colHeapDown(ch, 0)
			}
			if len(ch) == 0 || ch[0].col != col {
				break
			}
			sg = &s.segs[ch[0].seg]
			val += sg.vals[sg.i]
		}
		dst.cols = append(dst.cols, col)
		dst.vals = append(dst.vals, val)
	}
	s.colHeap = ch[:0]
}

// sortRow merges a wide row of n entries: its segments are gathered in
// leaf order and stably radix-sorted by column, so the values at equal
// columns add in leaf order.
func (s *mergeScratch) sortRow(dst *Matrix, row uint32, n int) {
	s.cols, s.cbuf = radix.Grow(s.cols, n), radix.Grow(s.cbuf, n)
	s.vals, s.vbuf = radix.Grow(s.vals, n), radix.Grow(s.vbuf, n)
	at := 0
	for _, sg := range s.segs {
		copy(s.vals[at:], sg.vals)
		at += copy(s.cols[at:], sg.cols)
	}
	cols, vals := radix.SortPairs(s.cols, s.vals, s.cbuf, s.vbuf)
	dst.rows = append(dst.rows, row)
	dst.rowPtr = append(dst.rowPtr, int64(len(dst.cols)))
	for i := 0; i < n; {
		c, v := cols[i], vals[i]
		for i++; i < n && cols[i] == c; i++ {
			v += vals[i]
		}
		dst.cols = append(dst.cols, c)
		dst.vals = append(dst.vals, v)
	}
}

// rowHeapDown restores the min-heap property of the leaf-cursor heap
// from index i downward, comparing current row ids.
func rowHeapDown(h []leafCursor, i int) {
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(h) && h[l].row < h[min].row {
			min = l
		}
		if r < len(h) && h[r].row < h[min].row {
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
func colHeapDown(h []colHead, i int) {
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(h) && h[l].col < h[min].col {
			min = l
		}
		if r < len(h) && h[r].col < h[min].col {
			min = r
		}
		if min == i {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}
