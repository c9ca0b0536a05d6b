package hypersparse

import (
	"context"
	"runtime"
	"sort"

	"repro/internal/pool"
	"repro/internal/radix"
)

// hier.go implements the hierarchical summation of leaf matrices into a
// window matrix. The paper's pipeline aggregates NV = 2^17 valid packets
// into each leaf GraphBLAS matrix and hierarchically sums 2^13 of them to
// form an NV = 2^30 window. Here each engine shard's Accumulator sums
// its own leaves and HierSum sums the shards, each level one k-way merge.

// HierSum sums the given matrices and returns the total. nil entries
// are treated as empty. workers <= 0 uses GOMAXPROCS.
//
// Every input is merged once, by sumByRows: one pooled k-way merge, or
// up to `workers` of them over row ranges when the inputs are large.
// The merge scratch comes from a sync.Pool and is retained across
// windows, so a warm window sum performs O(1) allocations (the
// published result and the goroutine bookkeeping) instead of the
// O(levels·nnz) of an allocate-per-merge binary tree.
//
// Aliasing: when exactly one leaf is non-empty HierSum returns that leaf
// itself — safe, because leaves are published immutable matrices. A
// multi-leaf sum is always published into fresh exact-size arrays;
// pooled scratch never escapes.
func HierSum(leaves []*Matrix, workers int) *Matrix {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	cur := make([]*Matrix, 0, len(leaves))
	for _, l := range leaves {
		if l != nil && l.NNZ() > 0 {
			cur = append(cur, l)
		}
	}
	switch len(cur) {
	case 0:
		return &Matrix{}
	case 1:
		return cur[0]
	}
	return sumByRows(cur, workers)
}

// rowPartMin is the fewest stored entries worth a row range of their
// own in sumByRows. At 2^14, sixteen 2^12-packet leaves (about 60 k
// entries) merge in two ranges on two workers in a quarter less time
// than in one.
const rowPartMin = 1 << 14

// sumByRows k-way-merges the (non-empty) matrices and publishes the sum
// into fresh exact-size arrays. Large inputs are cut into up to workers
// row ranges holding equal shares of the largest input's entries; the
// ranges are merged concurrently, each into its own pooled scratch, and
// copied side by side into the result. A row lies in exactly one range
// and is merged there from the same cells a single merge would add, so
// the sum of counts (values that add exactly in any order) is identical
// for every worker count; one range is that single merge.
func sumByRows(mats []*Matrix, workers int) *Matrix {
	nnz := 0
	big := mats[0]
	for _, m := range mats {
		nnz += len(m.cols)
		if len(m.cols) > len(big.cols) {
			big = m
		}
	}
	ranges := max(1, min(workers, nnz/rowPartMin))
	if ranges == 1 {
		s := scratchPool.Get().(*mergeScratch)
		sumInto(s, &s.m, mats)
		out := s.m.publish()
		scratchPool.Put(s)
		return out
	}

	// Range r holds the rows in [cuts[r], cuts[r+1]); the last one is
	// open-ended.
	cuts := make([]uint32, ranges)
	for r := 1; r < ranges; r++ {
		at := int64(len(big.cols)) * int64(r) / int64(ranges)
		cuts[r] = big.rows[sort.Search(len(big.rows)-1, func(i int) bool { return big.rowPtr[i] >= at })]
	}
	parts := make([]*mergeScratch, ranges)
	_ = pool.Each(context.Background(), ranges, ranges, func(_ context.Context, r int) error {
		// A view shares its matrix's cols and vals: rowPtr offsets are
		// absolute, so slicing rows and rowPtr is all a row range takes.
		views := make([]Matrix, len(mats))
		in := make([]*Matrix, len(mats))
		for i, m := range mats {
			lo := sort.Search(len(m.rows), func(j int) bool { return m.rows[j] >= cuts[r] })
			hi := len(m.rows)
			if r+1 < ranges {
				hi = sort.Search(len(m.rows), func(j int) bool { return m.rows[j] >= cuts[r+1] })
			}
			views[i] = Matrix{rows: m.rows[lo:hi], rowPtr: m.rowPtr[lo : hi+1], cols: m.cols, vals: m.vals}
			in[i] = &views[i]
		}
		parts[r] = scratchPool.Get().(*mergeScratch)
		sumInto(parts[r], &parts[r].m, in)
		return nil
	})

	rowOff := make([]int, ranges+1)
	colOff := make([]int, ranges+1)
	for r, p := range parts {
		rowOff[r+1] = rowOff[r] + len(p.m.rows)
		colOff[r+1] = colOff[r] + len(p.m.cols)
	}
	out := &Matrix{
		rows:   make([]uint32, rowOff[ranges]),
		rowPtr: make([]int64, rowOff[ranges]+1),
		cols:   make([]uint32, colOff[ranges]),
		vals:   make([]float64, colOff[ranges]),
	}
	out.rowPtr[rowOff[ranges]] = int64(colOff[ranges])
	_ = pool.Each(context.Background(), ranges, ranges, func(_ context.Context, r int) error {
		p := &parts[r].m
		copy(out.rows[rowOff[r]:], p.rows)
		copy(out.cols[colOff[r]:], p.cols)
		copy(out.vals[colOff[r]:], p.vals)
		for i := range p.rows {
			out.rowPtr[rowOff[r]+i] = p.rowPtr[i] + int64(colOff[r])
		}
		scratchPool.Put(parts[r])
		return nil
	})
	return out
}

// Accumulator counts a stream of packets into (row, col) cells,
// compiles a leaf Matrix every leafSize packets, and hierarchically sums
// the leaves into the window matrix on Finish, on one worker. This
// mirrors the telescope's streaming build: packets arrive one at a time,
// leaves are cut at fixed valid-packet counts.
//
// A leaf is built from its packed (row, col) keys alone: they are
// radix-sorted, each run of equal keys becomes one cell holding the
// run's length, and the cells compile to DCSR as FromEntries' do.
type Accumulator struct {
	leafSize int
	keys     []uint64  // packed (row, col) of the open leaf, in arrival order
	kbuf     []uint64  // radix scratch, retained across leaves
	counts   []float64 // the sorted leaf's cell counts, retained across leaves
	leaves   []*Matrix
}

// NewAccumulator returns an Accumulator cutting leaves every leafSize
// packets (the paper's leaf NV is 2^17). leafSize must be positive.
func NewAccumulator(leafSize int) *Accumulator {
	if leafSize <= 0 {
		panic("hypersparse: leafSize must be positive")
	}
	return &Accumulator{
		leafSize: leafSize,
		keys:     make([]uint64, 0, leafSize),
	}
}

// Add counts one packet from row to col.
func (a *Accumulator) Add(row, col uint32) {
	a.keys = append(a.keys, key(row, col))
	if len(a.keys) >= a.leafSize {
		a.cut()
	}
}

func (a *Accumulator) cut() {
	n := len(a.keys)
	if n == 0 {
		return
	}
	a.kbuf = radix.Grow(a.kbuf, n)
	a.counts = radix.Grow(a.counts, n)
	keys := radix.Sort(a.keys, a.kbuf)
	u := 0
	for i := 0; i < n; u++ {
		k, j := keys[i], i+1
		for j < n && keys[j] == k {
			j++
		}
		keys[u], a.counts[u] = k, float64(j-i)
		i = j
	}
	a.leaves = append(a.leaves, compile(keys[:u], a.counts[:u]))
	a.keys = a.keys[:0]
}

// Leaves reports how many leaves Finish will sum: those cut so far,
// plus the open one when it holds packets.
func (a *Accumulator) Leaves() int {
	if len(a.keys) > 0 {
		return len(a.leaves) + 1
	}
	return len(a.leaves)
}

// Finish cuts any partial leaf and returns the hierarchical sum. The
// accumulator is reset and reusable afterwards; it retains its key
// buffers and leaf-list capacity, so a reused accumulator (the engine
// pools one per shard worker) allocates only the published leaves at
// steady state.
func (a *Accumulator) Finish() *Matrix {
	a.cut()
	m := HierSum(a.leaves, 1)
	for i := range a.leaves {
		a.leaves[i] = nil // release the merged leaves for collection
	}
	a.leaves = a.leaves[:0]
	return m
}

// Discard drops all accumulated state — pending packets and cut
// leaves — without the merge Finish performs. It is the O(1) reset for
// abandoned captures (context cancellation), where Finish would burn a
// full hierarchical merge just to throw the window away. The
// accumulator's buffers are retained for reuse.
func (a *Accumulator) Discard() {
	a.keys = a.keys[:0]
	for i := range a.leaves {
		a.leaves[i] = nil
	}
	a.leaves = a.leaves[:0]
}
