package hypersparse

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/testkit"
)

// hotpath_test.go pins the zero-allocation hot path: differential
// property tests of FromEntries and the pooled k-way merges against
// the map-builder oracle, AllocsPerRun regression gates, the
// pooled-buffer escape test, and the >= 2x window-build speedup gate the
// PR's performance claim rests on.

// mapBuilder is the map-based assembler the radix build replaced: the
// oracle FromEntries and the Accumulator are verified and timed against.
type mapBuilder struct {
	m map[uint64]float64
}

func newMapBuilder(n int) *mapBuilder {
	return &mapBuilder{m: make(map[uint64]float64, n)}
}

// add accumulates v at (row, col).
func (b *mapBuilder) add(row, col uint32, v float64) {
	b.m[key(row, col)] += v
}

// build compiles the accumulated cells into a published Matrix and
// resets the assembler.
func (b *mapBuilder) build() *Matrix {
	keys := make([]uint64, 0, len(b.m))
	for k := range b.m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })

	m := &Matrix{
		cols: make([]uint32, len(keys)),
		vals: make([]float64, len(keys)),
	}
	var lastRow uint32
	haveRow := false
	for i, k := range keys {
		row := uint32(k >> 32)
		if !haveRow || row != lastRow {
			m.rows = append(m.rows, row)
			m.rowPtr = append(m.rowPtr, int64(i))
			lastRow, haveRow = row, true
		}
		m.cols[i] = uint32(k)
		m.vals[i] = b.m[k]
	}
	m.rowPtr = append(m.rowPtr, int64(len(keys)))
	b.m = make(map[uint64]float64)
	return m
}

// refBuild compiles entries through the map-based oracle.
func refBuild(es []Entry) *Matrix {
	b := newMapBuilder(len(es))
	for _, e := range es {
		b.add(e.Row, e.Col, e.Val)
	}
	return b.build()
}

// refAdd is the allocate-per-call two-way merge the pooled k-way merge
// replaced; it shares appendRow and appendMergedRow with it and nothing
// else.
func refAdd(a, b *Matrix) *Matrix {
	out := &Matrix{}
	ai, bi := 0, 0
	for ai < len(a.rows) || bi < len(b.rows) {
		switch {
		case bi == len(b.rows) || (ai < len(a.rows) && a.rows[ai] < b.rows[bi]):
			out.appendRow(a.rows[ai], a.cols[a.rowPtr[ai]:a.rowPtr[ai+1]], a.vals[a.rowPtr[ai]:a.rowPtr[ai+1]])
			ai++
		case ai == len(a.rows) || b.rows[bi] < a.rows[ai]:
			out.appendRow(b.rows[bi], b.cols[b.rowPtr[bi]:b.rowPtr[bi+1]], b.vals[b.rowPtr[bi]:b.rowPtr[bi+1]])
			bi++
		default:
			out.appendMergedRow(a.rows[ai],
				a.cols[a.rowPtr[ai]:a.rowPtr[ai+1]], a.vals[a.rowPtr[ai]:a.rowPtr[ai+1]],
				b.cols[b.rowPtr[bi]:b.rowPtr[bi+1]], b.vals[b.rowPtr[bi]:b.rowPtr[bi+1]])
			ai++
			bi++
		}
	}
	out.rowPtr = append(out.rowPtr, int64(len(out.cols)))
	return out
}

// refAddTree sums leaves with the pre-refactor strategy: a binary merge
// tree where every level allocates fresh DCSR arrays via refAdd.
func refAddTree(leaves []*Matrix) *Matrix {
	cur := make([]*Matrix, 0, len(leaves))
	for _, l := range leaves {
		if l != nil && l.NNZ() > 0 {
			cur = append(cur, l)
		}
	}
	if len(cur) == 0 {
		return &Matrix{}
	}
	for len(cur) > 1 {
		next := cur[:0:0]
		for i := 0; i < len(cur); i += 2 {
			if i+1 == len(cur) {
				next = append(next, cur[i])
			} else {
				next = append(next, refAdd(cur[i], cur[i+1]))
			}
		}
		cur = next
	}
	return cur[0]
}

// windowEntries synthesizes leaf entry sets shaped like telescope
// traffic: heavy-tailed sources over the full 2^32 space, destinations
// inside one /8.
func windowEntries(seed int64, leaves, perLeaf int) [][]Entry {
	rng := rand.New(rand.NewSource(seed))
	hot := make([]uint32, 64) // heavy-tailed repeat sources
	for i := range hot {
		hot[i] = rng.Uint32()
	}
	out := make([][]Entry, leaves)
	for l := range out {
		es := make([]Entry, perLeaf)
		for i := range es {
			row := rng.Uint32()
			if rng.Intn(4) != 0 { // 3/4 of packets from hot sources
				row = hot[rng.Intn(len(hot))]
			}
			es[i] = Entry{
				Row: row,
				Col: 0x2C000000 | rng.Uint32()&0x00FFFFFF,
				Val: 1,
			}
		}
		out[l] = es
	}
	return out
}

func TestRadixBuilderMatchesMapOracle(t *testing.T) {
	cases := []struct {
		name    string
		entries []Entry
	}{
		{"empty", nil},
		{"single", []Entry{{5, 6, 2}}},
		{"one-row-many-cols", func() []Entry {
			es := make([]Entry, 300)
			for i := range es {
				es[i] = Entry{Row: 9, Col: uint32(i * 7 % 100), Val: float64(i%3 + 1)}
			}
			return es
		}()},
		{"extreme-ids", []Entry{
			{0, 0, 1}, {0xFFFFFFFF, 0xFFFFFFFF, 2}, {0, 0xFFFFFFFF, 3},
			{0xFFFFFFFF, 0, 4}, {0, 0, 5},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := FromEntries(tc.entries)
			want := refBuild(tc.entries)
			if !Equal(got, want) {
				t.Fatalf("radix build diverges from oracle:\n got %v\nwant %v", got, want)
			}
		})
	}
	// Fuzzed shapes: vary density, id ranges, duplicate rates.
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(3000)
		rowSpace := uint32(1 + rng.Intn(1<<uint(rng.Intn(32))))
		colSpace := uint32(1 + rng.Intn(1<<uint(rng.Intn(32))))
		es := make([]Entry, n)
		for i := range es {
			es[i] = Entry{
				Row: rng.Uint32() % rowSpace,
				Col: rng.Uint32() % colSpace,
				Val: float64(1 + rng.Intn(9)),
			}
		}
		got, want := FromEntries(es), refBuild(es)
		if !Equal(got, want) {
			t.Fatalf("trial %d (n=%d rows<%d cols<%d): radix build diverges from oracle",
				trial, n, rowSpace, colSpace)
		}
	}
}

func TestSumIntoMatchesAddTree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		k := 1 + rng.Intn(40)
		leaves := make([]*Matrix, k)
		for i := range leaves {
			if rng.Intn(8) == 0 {
				leaves[i] = &Matrix{} // sprinkle empties
				continue
			}
			leaves[i] = FromEntries(randomEntries(rng, 1+rng.Intn(400), 300, 300))
		}
		want := refAddTree(leaves)
		var dst Matrix
		sumInto(new(mergeScratch), &dst, leaves)
		if !Equal(&dst, want) {
			t.Fatalf("trial %d (k=%d): sumInto diverges from Add tree", trial, k)
		}
		for _, workers := range []int{1, 2, 8} {
			if got := HierSum(leaves, workers); !Equal(got, want) {
				t.Fatalf("trial %d (k=%d, workers=%d): HierSum diverges from Add tree", trial, k, workers)
			}
		}
	}
}

func TestSumIntoPanicsOnAliasedDst(t *testing.T) {
	a := FromEntries([]Entry{{1, 2, 3}})
	b := FromEntries([]Entry{{4, 5, 6}})
	defer func() {
		if recover() == nil {
			t.Error("aliased destination did not panic")
		}
		if !Equal(a, FromEntries([]Entry{{1, 2, 3}})) {
			t.Error("the panic fired after the destination was rewritten")
		}
	}()
	sumInto(new(mergeScratch), a, []*Matrix{b, a})
}

// TestPooledScratchNeverEscapes drives the pooled merge path hard and
// verifies earlier results are never corrupted by later pool reuse: the
// published matrices must not share storage with pooled scratch, and the
// single-leaf aliasing shortcut must return the (immutable) leaf, never
// a pooled buffer.
func TestPooledScratchNeverEscapes(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	type snap struct {
		m    *Matrix
		want []Entry
	}
	var snaps []snap
	for trial := 0; trial < 30; trial++ {
		k := 2 + rng.Intn(20)
		leaves := make([]*Matrix, k)
		for i := range leaves {
			leaves[i] = FromEntries(randomEntries(rng, 1+rng.Intn(200), 100, 100))
		}
		m := HierSum(leaves, 1+rng.Intn(4))
		snaps = append(snaps, snap{m: m, want: m.Entries()})
	}
	// Churn the pool: every merge here reuses the scratch the snapshots'
	// merges used. If a pooled buffer escaped, a snapshot changes.
	for trial := 0; trial < 50; trial++ {
		leaves := make([]*Matrix, 16)
		for i := range leaves {
			leaves[i] = FromEntries(randomEntries(rng, 200, 100, 100))
		}
		HierSum(leaves, 2)
	}
	for i, s := range snaps {
		got := s.m.Entries()
		if len(got) != len(s.want) {
			t.Fatalf("snapshot %d: NNZ changed after pool churn", i)
		}
		for j := range got {
			if got[j] != s.want[j] {
				t.Fatalf("snapshot %d: entry %d changed after pool churn: %v -> %v",
					i, j, s.want[j], got[j])
			}
		}
	}
	// The one-leaf shortcut must return the leaf itself, not scratch.
	leaf := FromEntries([]Entry{{1, 2, 3}})
	if got := HierSum([]*Matrix{nil, {}, leaf}, 4); got != leaf {
		t.Error("single-leaf HierSum must return the leaf (documented aliasing)")
	}
}

func TestStatsMatchesSeparateReductions(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 20; trial++ {
		m := FromEntries(randomEntries(rng, rng.Intn(2000), 500, 500))
		s := m.Stats(1)
		// The separate reductions, from the entries alone.
		var sum, maxVal float64
		rowSums, rowDegs := map[uint32]float64{}, map[uint32]float64{}
		colSums, colDegs := map[uint32]float64{}, map[uint32]float64{}
		for _, e := range m.Entries() {
			sum += e.Val
			maxVal = max(maxVal, e.Val)
			rowSums[e.Row] += e.Val
			rowDegs[e.Row]++
			colSums[e.Col] += e.Val
			colDegs[e.Col]++
		}
		largest := func(m map[uint32]float64) (mx float64) {
			for _, v := range m {
				mx = max(mx, v)
			}
			return mx
		}
		checks := []struct {
			name      string
			got, want float64
		}{
			{"Sum", s.Sum, sum},
			{"MaxVal", s.MaxVal, maxVal},
			{"NNZ", float64(s.NNZ), float64(m.NNZ())},
			{"NRows", float64(s.NRows), float64(len(rowSums))},
			{"NCols", float64(s.NCols), float64(len(colSums))},
			{"MaxRowSum", s.MaxRowSum, largest(rowSums)},
			{"MaxRowDeg", s.MaxRowDeg, largest(rowDegs)},
			{"MaxColSum", s.MaxColSum, largest(colSums)},
			{"MaxColDeg", s.MaxColDeg, largest(colDegs)},
		}
		for _, c := range checks {
			if c.got != c.want {
				t.Fatalf("trial %d: Stats.%s = %g, reduction says %g", trial, c.name, c.got, c.want)
			}
		}
	}
}

// TestStatsWorkerSweep: the partitioned column scan is bit-identical to
// the single one. The values are fractional, so a column summed in any
// order but row-major would show in the last bits of MaxColSum; the
// oracle is a map filled in row-major order, sharing no code with the
// scan; the matrices are large enough for eight partitions, narrow
// enough that columns repeat, and one has strided column ids.
func TestStatsWorkerSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for trial, stride := range []uint32{1, 1, 256} {
		es := randomEntries(rng, 9*colPartMin+rng.Intn(1000), 1<<20, 3000)
		for i := range es {
			es[i].Col *= stride
			es[i].Val = rng.Float64() * 10
		}
		m := FromEntries(es)
		sums, degs := make(map[uint32]float64), make(map[uint32]float64)
		m.Iterate(func(e Entry) bool {
			sums[e.Col] += e.Val
			degs[e.Col]++
			return true
		})
		want := m.Stats(1)
		var maxSum, maxDeg float64
		for c := range sums {
			maxSum, maxDeg = max(maxSum, sums[c]), max(maxDeg, degs[c])
		}
		if want.NCols != len(sums) || want.MaxColSum != maxSum || want.MaxColDeg != maxDeg {
			t.Fatalf("trial %d: one worker: NCols %d, MaxColSum %v, MaxColDeg %v; row-major map says %d, %v, %v",
				trial, want.NCols, want.MaxColSum, want.MaxColDeg, len(sums), maxSum, maxDeg)
		}
		for _, workers := range []int{0, 2, 3, 8, 64} {
			if got := m.Stats(workers); got != want {
				t.Errorf("trial %d: Stats(%d) = %+v, Stats(1) = %+v", trial, workers, got, want)
			}
		}
	}
}

func TestColScanMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		es := randomEntries(rng, rng.Intn(1500), 400, 400)
		m := FromEntries(es)
		sums := map[uint32]float64{}
		cnts := map[uint32]int{}
		for _, e := range m.Entries() {
			sums[e.Col] += e.Val
			cnts[e.Col]++
		}
		var lastCol uint32
		seen := 0
		m.colScan(0, 1, func(col uint32, sum float64, nnz int) {
			if seen > 0 && col <= lastCol {
				t.Fatalf("trial %d: colScan order violated: %d after %d", trial, col, lastCol)
			}
			lastCol = col
			seen++
			if sum != sums[col] || nnz != cnts[col] {
				t.Fatalf("trial %d: colScan(%d) = (%g, %d), want (%g, %d)",
					trial, col, sum, nnz, sums[col], cnts[col])
			}
		})
		if seen != len(sums) {
			t.Fatalf("trial %d: colScan visited %d cols, want %d", trial, seen, len(sums))
		}
	}
}

// allocGates are the steady-state allocation budgets of the hot path.
// The Accumulator's counted leaf allocates exactly the published matrix
// (5 objects); the warm merge and reduction paths allocate nothing.
func TestSteadyStateAllocGates(t *testing.T) {
	if testkit.RaceEnabled {
		t.Skip("allocation accounting is perturbed by the race detector")
	}
	es := windowEntries(5, 4, 4096)
	acc := NewAccumulator(len(es[0]))
	leafCount := func() {
		for _, e := range es[0] {
			acc.Add(e.Row, e.Col) // the last add cuts the leaf
		}
		acc.Discard()
	}
	leafCount() // warm the accumulator's buffers
	if got := testing.AllocsPerRun(20, leafCount); got > 8 {
		t.Errorf("steady-state counted leaf: %.1f allocs/op, gate is 8", got)
	}

	// Two rows dealt over all four leaves, holding wideRow-1 and wideRow
	// distinct columns, so the warm merge runs both the segment heap and
	// the wide-row sort.
	for i := range 2*wideRow - 1 {
		row := uint32(1)
		if i >= wideRow-1 {
			row = 2
		}
		es[i%len(es)] = append(es[i%len(es)], Entry{Row: row, Col: uint32(i), Val: 1})
	}
	leaves := make([]*Matrix, len(es))
	for i, e := range es {
		leaves[i] = FromEntries(e)
	}
	var dst Matrix
	scratch := new(mergeScratch)
	sumInto(scratch, &dst, leaves) // warm dst, the heaps and the sort buffers
	if p := dst.rowPtr; dst.rows[0] != 1 || dst.rows[1] != 2 || p[1]-p[0] != wideRow-1 || p[2]-p[1] != wideRow {
		t.Fatal("the merge input lacks a row on each side of wideRow")
	}
	if got := testing.AllocsPerRun(20, func() {
		sumInto(scratch, &dst, leaves)
	}); got > 0 {
		t.Errorf("warm sumInto: %.1f allocs/op, gate is 0", got)
	}

	w := HierSum(leaves, 1)
	if got := testing.AllocsPerRun(20, func() {
		HierSum(leaves, 1)
	}); got > 8 {
		t.Errorf("steady-state serial HierSum: %.1f allocs/op, gate is 8 (publish only)", got)
	}

	w.Stats(1) // warm the column-scan pool
	if got := testing.AllocsPerRun(20, func() {
		w.Stats(1)
	}); got > 0 {
		t.Errorf("warm fused Stats: %.1f allocs/op, gate is 0", got)
	}

	// The fan-out path pays for its goroutines and the pool's queue, not
	// for the matrix: the same small bound at two partitions and at eight.
	var wide []*Matrix
	for _, e := range windowEntries(7, 9, colPartMin) {
		wide = append(wide, FromEntries(e))
	}
	ww := HierSum(wide, 1)
	for _, workers := range []int{2, 8} {
		ww.Stats(workers) // warm one scratch per partition
		if got := testing.AllocsPerRun(20, func() {
			ww.Stats(workers)
		}); got > 32 {
			t.Errorf("warm fused Stats on %d workers: %.1f allocs/op, gate is 32 (13 and 19 when written)", workers, got)
		}
	}
}

// TestWindowBuildSpeedup is the checked performance gate: the engine's
// window build (the Accumulator's counted leaves and the pooled k-way
// merge) must be at least 2x the retained reference path (map builder +
// allocate-per-level Add tree) on identical window-shaped input. This is
// the in-process, same-machine form of the "BenchmarkEngineWindow >= 2x
// seed" acceptance bar: it isolates the leaf build and the merge, with
// anonymization and stream synthesis factored out.
func TestWindowBuildSpeedup(t *testing.T) {
	if testkit.RaceEnabled {
		t.Skip("relative timings are not meaningful under the race detector")
	}
	if testing.Short() {
		t.Skip("timing gate skipped in -short mode")
	}
	es := windowEntries(17, 16, 4096)

	reference := func() *Matrix {
		leaves := make([]*Matrix, len(es))
		for i, entries := range es {
			b := newMapBuilder(len(entries))
			for _, e := range entries {
				b.add(e.Row, e.Col, e.Val)
			}
			leaves[i] = b.build()
		}
		return refAddTree(leaves)
	}
	acc := NewAccumulator(len(es[0]))
	hot := func() *Matrix {
		for _, entries := range es {
			for _, e := range entries {
				acc.Add(e.Row, e.Col) // every entry is one packet
			}
		}
		return acc.Finish()
	}

	if !Equal(reference(), hot()) {
		t.Fatal("hot path and reference path disagree on the window matrix")
	}

	timed := func(f func() *Matrix) time.Duration {
		start := time.Now()
		f()
		return time.Since(start)
	}
	// Best of six each, the samples interleaved: a host that slows down
	// or speeds up mid-test (another package's tests starting under
	// `go test ./...`) then lands on both sides of the ratio, not one.
	// The reference's garbage triggers collections that empty the hot
	// path's pools, so each hot sample is preceded by an untimed run that
	// warms pools and accumulator again: the gate is on the steady state.
	refTime, hotTime := time.Duration(1<<63-1), time.Duration(1<<63-1)
	for i := 0; i < 6; i++ {
		refTime = min(refTime, timed(reference))
		hot()
		hotTime = min(hotTime, timed(hot))
	}
	ratio := float64(refTime) / float64(hotTime)
	t.Logf("window build: reference %v, hot path %v, speedup %.2fx", refTime, hotTime, ratio)
	if ratio < 2 {
		t.Errorf("hot-path speedup %.2fx < 2x gate (reference %v, hot %v)", ratio, refTime, hotTime)
	}
}

// BenchmarkStats measures the fused Table II reduction on a
// window-shaped matrix (16 leaves of 2^14 packets into one /8) at one
// worker and at two; the results are bit-identical, only the column
// scan is partitioned.
func BenchmarkStats(b *testing.B) {
	leaves := make([]*Matrix, 0, 16)
	for _, es := range windowEntries(29, 16, 1<<14) {
		leaves = append(leaves, FromEntries(es))
	}
	m := HierSum(leaves, 1)
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("w%d", workers), func(b *testing.B) {
			m.Stats(workers) // warm the column-scan pool
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Stats(workers)
			}
		})
	}
}

// BenchmarkHierSumShards is the engine's last merge: two shard matrices
// of eight 2^14-packet leaves each, summed on one worker and on two
// (two row ranges).
func BenchmarkHierSumShards(b *testing.B) {
	var shards []*Matrix
	for seed := int64(31); seed < 33; seed++ {
		var leaves []*Matrix
		for _, es := range windowEntries(seed, 8, 1<<14) {
			leaves = append(leaves, FromEntries(es))
		}
		shards = append(shards, HierSum(leaves, 1))
	}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("w%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				HierSum(shards, workers)
			}
		})
	}
}
