package tripled

// oracle_test.go keeps the map-of-maps table the store was built on
// before a row became a sorted run — row -> col -> value — as the model
// the run layout is diffed against. It has no lock: every query below
// is defined on the table's contents alone, so the model answers for
// any layout of them.

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/assoc"
	"repro/internal/testkit"
)

type mapStore struct {
	rows map[string]map[string]assoc.Value // row -> col -> value
}

func newMapStore() *mapStore {
	return &mapStore{rows: make(map[string]map[string]assoc.Value)}
}

// sortedKeys returns the keys of m in order, built in buf[:0].
func sortedKeys[V any](buf []string, m map[string]V) []string {
	buf = buf[:0]
	for k := range m {
		buf = append(buf, k)
	}
	slices.Sort(buf)
	return buf
}

func (m *mapStore) put(row, col string, v assoc.Value) {
	r, ok := m.rows[row]
	if !ok {
		r = make(map[string]assoc.Value)
		m.rows[row] = r
	}
	r[col] = v
}

func (m *mapStore) del(row, col string) bool {
	r, ok := m.rows[row]
	if !ok {
		return false
	}
	if _, exists := r[col]; !exists {
		return false
	}
	delete(r, col)
	if len(r) == 0 {
		delete(m.rows, row)
	}
	return true
}

func (m *mapStore) nnz() int {
	n := 0
	for _, r := range m.rows {
		n += len(r)
	}
	return n
}

// cellsOf returns the model's cells of the given rows in (row, col)
// order.
func (m *mapStore) cellsOf(rows []string) []Cell {
	var out []Cell
	for _, r := range rows {
		cells := m.rows[r]
		for _, c := range sortedKeys(nil, cells) {
			out = append(out, Cell{Row: r, Col: c, Val: cells[c]})
		}
	}
	return out
}

// scanRows is the paged row scan by a full walk of the row map — filter,
// sort, cut — which has never seen an ordered index.
func (m *mapStore) scanRows(start, end string, limit int, cursor string) ([]string, bool) {
	var rows []string
	for r := range m.rows {
		if r < start || (end != "" && r >= end) || (cursor != "" && r <= cursor) {
			continue
		}
		rows = append(rows, r)
	}
	sort.Strings(rows)
	if limit > 0 && len(rows) > limit {
		return rows[:limit], true
	}
	return rows, false
}

// scanCells is the CELLS page the same way: the cells of scanRows' page.
func (m *mapStore) scanCells(start, end string, limit int, cursor string) ([]Cell, bool) {
	rows, more := m.scanRows(start, end, limit, cursor)
	return m.cellsOf(rows), more
}

func (m *mapStore) writeLog() []byte {
	var b bytes.Buffer
	for _, c := range m.cellsOf(sortedKeys(nil, m.rows)) {
		marker := "s"
		if c.Val.Numeric {
			marker = "n"
		}
		fmt.Fprintf(&b, "PUT\t%s\t%s\t%s\t%s\n", c.Row, c.Col, marker, c.Val.String())
	}
	return b.Bytes()
}

func (m *mapStore) topRows(k int) []RowDegree {
	var out []RowDegree
	for r, cells := range m.rows {
		out = append(out, RowDegree{Row: r, Degree: len(cells)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Degree != out[j].Degree {
			return out[i].Degree > out[j].Degree
		}
		return out[i].Row < out[j].Row
	})
	return out[:max(0, min(k, len(out)))]
}

func (m *mapStore) bucketDigests(nb int) []BucketDigest {
	out := make([]BucketDigest, nb)
	for row, cells := range m.rows {
		b := DigestBucket(row, nb)
		for col, v := range cells {
			out[b].Count++
			out[b].Sum += cellDigest(row, col, v)
		}
	}
	return out
}

func (m *mapStore) rowDigests(nb, bucket int) []RowDigestEntry {
	var out []RowDigestEntry
	for row, cells := range m.rows {
		if bucket >= 0 && DigestBucket(row, nb) != bucket {
			continue
		}
		e := RowDigestEntry{Row: row, Count: len(cells)}
		for col, v := range cells {
			e.Sum += cellDigest(row, col, v)
		}
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Row < out[j].Row })
	return out
}

// diffStore compares every query the store answers against the model.
func diffStore(t *testing.T, step int, what string, s *Store, m *mapStore, rowSpace, colSpace []string) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("step %d (%s): %s", step, what, fmt.Sprintf(format, args...))
	}
	if got, want := s.NNZ(), m.nnz(); got != want {
		fail("NNZ = %d, model %d", got, want)
	}
	table := s.ToAssoc()
	if got, want := table.NRows(), len(m.rows); got != want {
		fail("ToAssoc holds %d rows, model %d", got, want)
	}
	for _, r := range rowSpace {
		if got, want := table.Row(r), m.rows[r]; !reflect.DeepEqual(got, want) { // nil when absent, on both sides
			fail("ToAssoc row %q = %v, model %v", r, got, want)
		}
		for _, c := range colSpace {
			got, ok := s.Get(r, c)
			want, wok := m.rows[r][c]
			if ok != wok || got != want {
				fail("Get(%q,%q) = %v,%v model %v,%v", r, c, got, ok, want, wok)
			}
		}
	}
	for _, k := range []int{-1, 0, 3, 1 << 20} {
		if got, want := s.TopRowsByDegree(k), m.topRows(k); !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
			fail("TopRowsByDegree(%d) = %v, model %v", k, got, want)
		}
	}
	for _, scan := range []struct {
		start, end string
		limit      int
	}{{"", "", 7}, {"b/", "c/", 3}, {"a/r1", "", 1}, {"", "", 0}} {
		cursor := ""
		for page := 0; ; page++ {
			got, more := s.appendCells(nil, scan.start, scan.end, scan.limit, cursor)
			want, wmore := m.scanCells(scan.start, scan.end, scan.limit, cursor)
			if !cellsEqual(got, want) || more != wmore {
				fail("appendCells(%q,%q,%d,%q) page %d = %d cells more=%v, model %d cells more=%v",
					scan.start, scan.end, scan.limit, cursor, page, len(got), more, len(want), wmore)
			}
			if !more {
				break
			}
			cursor = got[len(got)-1].Row
		}
	}
	var log bytes.Buffer
	if err := s.WriteLog(&log); err != nil {
		fail("WriteLog: %v", err)
	}
	if want := m.writeLog(); !bytes.Equal(log.Bytes(), want) {
		fail("WriteLog wrote %d bytes, model %d:\n%s\nmodel:\n%s", log.Len(), len(want), log.Bytes(), want)
	}
	if got, want := s.BucketDigests(8), m.bucketDigests(8); !reflect.DeepEqual(got, want) {
		fail("BucketDigests(8) = %v, model %v", got, want)
	}
	for _, bucket := range []int{-1, 3} {
		if got, want := s.RowDigests(8, bucket), m.rowDigests(8, bucket); !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
			fail("RowDigests(8,%d) = %v, model %v", bucket, got, want)
		}
	}
}

// TestStoreMatchesMapOracle is the model-based differential test of
// the run layout: random single and batched mutations — overwrites,
// deleting a row's last cell and re-inserting it, rows interleaved
// inside one batch, columns out of order inside one row's run, the
// same cell twice in one batch (last wins) — applied to the store and
// to the map-of-maps model, with every query compared and every
// structural invariant checked after every step.
func TestStoreMatchesMapOracle(t *testing.T) {
	var rowSpace, colSpace []string
	for _, p := range []string{"a/", "b/", "c/"} {
		for i := 0; i < 6; i++ {
			rowSpace = append(rowSpace, fmt.Sprintf("%sr%d", p, i))
		}
	}
	for i := 0; i < 7; i++ {
		colSpace = append(colSpace, fmt.Sprintf("c%d", i))
	}
	steps := 1500
	if testing.Short() {
		steps = 300
	}
	for _, seed := range []int64{1, 16} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			s, m := NewStore(), newMapStore()
			pick := func(space []string) string { return space[rng.Intn(len(space))] }
			val := func() assoc.Value {
				if rng.Intn(2) == 0 {
					return assoc.Num(float64(rng.Intn(50)))
				}
				return assoc.Str(fmt.Sprintf("v%d\twith tab", rng.Intn(50)))
			}
			// batch builds runs of same-row cells: sorted, shuffled or with
			// a repeated column; now and then the next run returns to an
			// earlier row, so rows interleave within the batch.
			batch := func() []Cell {
				var cells []Cell
				for runs := 1 + rng.Intn(4); runs > 0; runs-- {
					row := pick(rowSpace)
					if len(cells) > 0 && rng.Intn(3) == 0 {
						row = cells[rng.Intn(len(cells))].Row
					}
					cols := append([]string(nil), colSpace[:1+rng.Intn(len(colSpace))]...)
					switch rng.Intn(3) {
					case 0: // the publish order
					case 1:
						rng.Shuffle(len(cols), func(i, j int) { cols[i], cols[j] = cols[j], cols[i] })
					case 2:
						cols = append(cols, cols[rng.Intn(len(cols))])
					}
					for _, c := range cols {
						cells = append(cells, Cell{Row: row, Col: c, Val: val()})
					}
				}
				return cells
			}
			for step := 0; step < steps; step++ {
				what := ""
				// Bias towards deletes every other few hundred steps so rows
				// and columns empty out and return.
				draining := (step/250)%2 == 1
				switch op := rng.Intn(10); {
				case op < 2 && !draining || op < 1:
					r, c, v := pick(rowSpace), pick(colSpace), val()
					what = fmt.Sprintf("Put(%q,%q)", r, c)
					if err := s.Put(r, c, v); err != nil {
						t.Fatal(err)
					}
					m.put(r, c, v)
				case op < 5:
					r, c := pick(rowSpace), pick(colSpace)
					what = fmt.Sprintf("Delete(%q,%q)", r, c)
					if got, want := s.Delete(r, c), m.del(r, c); got != want {
						t.Fatalf("step %d: %s = %v, model %v", step, what, got, want)
					}
				case op < 7 && !draining:
					cells := batch()
					what = fmt.Sprintf("PutBatch(%d cells)", len(cells))
					if err := s.PutBatch(cells); err != nil {
						t.Fatal(err)
					}
					for _, c := range cells {
						m.put(c.Row, c.Col, c.Val)
					}
				case op < 9:
					var keys []CellKey
					for _, c := range batch() {
						keys = append(keys, CellKey{Row: c.Row, Col: c.Col})
					}
					if draining && rng.Intn(4) == 0 { // a whole row, last cell included
						keys = keys[:0]
						r := pick(rowSpace)
						for _, c := range colSpace {
							keys = append(keys, CellKey{Row: r, Col: c})
						}
					}
					what = fmt.Sprintf("deleteBatch(%d keys)", len(keys))
					want := 0
					for _, k := range keys {
						if m.del(k.Row, k.Col) {
							want++
						}
					}
					if got := s.deleteBatch(keys); got != want {
						t.Fatalf("step %d: %s = %d, model %d", step, what, got, want)
					}
				default:
					a := assoc.New()
					for _, c := range batch() {
						a.Set(c.Row, c.Col, c.Val)
					}
					what = fmt.Sprintf("LoadAssoc(%d cells)", a.NNZ())
					if err := s.LoadAssoc(a); err != nil {
						t.Fatal(err)
					}
					a.Iterate(func(r, c string, v assoc.Value) bool {
						m.put(r, c, v)
						return true
					})
				}
				verifyStoreInvariants(t, s)
				diffStore(t, step, what, s, m, rowSpace, colSpace)
			}
		})
	}
}

// TestStoreWideRowMatchesOracle drives one row past several block
// splits, cell by cell in random column order, and back to nothing —
// the shape the narrow-row differential test never reaches.
func TestStoreWideRowMatchesOracle(t *testing.T) {
	s, m := NewStore(), newMapStore()
	rng := rand.New(rand.NewSource(3))
	const width = 1000
	var colSpace []string
	for i := 0; i < width; i++ {
		colSpace = append(colSpace, fmt.Sprintf("c%04d", i))
	}
	rowSpace := []string{"wide", "narrow"}
	s.Put("narrow", "c0500", assoc.Num(1))
	m.put("narrow", "c0500", assoc.Num(1))
	for _, i := range rng.Perm(width) {
		v := assoc.Num(float64(i))
		if err := s.Put("wide", colSpace[i], v); err != nil {
			t.Fatal(err)
		}
		m.put("wide", colSpace[i], v)
	}
	verifyStoreInvariants(t, s)
	diffStore(t, 0, "filled", s, m, rowSpace, colSpace[490:510])
	for n, i := range rng.Perm(width) {
		if got, want := s.Delete("wide", colSpace[i]), m.del("wide", colSpace[i]); got != want {
			t.Fatalf("Delete(wide,%q) = %v, model %v", colSpace[i], got, want)
		}
		if n%100 == 99 {
			verifyStoreInvariants(t, s)
			diffStore(t, n, "draining", s, m, rowSpace, colSpace[490:510])
		}
	}
	if s.NNZ() != 1 {
		t.Fatalf("NNZ = %d after the drain, want the narrow row's 1", s.NNZ())
	}
}

// TestWideRowPutWithinTwiceTheMapOfMaps is the store's wide-row guard:
// 200k cells put into one row in random column order, cell by cell,
// must not take more than twice what the map-of-maps table the store
// was built on took — row -> col -> value with its transpose beside it,
// a fixed yardstick — since a row's run splits into blocks as the
// ordered row index always did, so an insert stays O(log c) however
// wide the row. (A bare row map is about four times faster than a run
// on random-order inserts: a hash map, not an ordered one.)
func TestWideRowPutWithinTwiceTheMapOfMaps(t *testing.T) {
	if testing.Short() || testkit.RaceEnabled {
		t.Skip("timing comparison")
	}
	const n = 200_000
	cols := make([]string, n)
	for i, j := range rand.New(rand.NewSource(9)).Perm(n) {
		cols[i] = fmt.Sprintf("col%06d", j)
	}
	var s *Store
	fillRuns := func() {
		s = NewStore()
		for i, c := range cols {
			if err := s.Put("wide", c, assoc.Num(float64(i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	fillMaps := func() {
		rows, byCol := make(map[string]map[string]assoc.Value), make(map[string]map[string]assoc.Value)
		put := func(m map[string]map[string]assoc.Value, k1, k2 string, v assoc.Value) {
			if m[k1] == nil {
				m[k1] = make(map[string]assoc.Value)
			}
			m[k1][k2] = v
		}
		for i, c := range cols {
			put(rows, "wide", c, assoc.Num(float64(i)))
			put(byCol, c, "wide", assoc.Num(float64(i)))
		}
	}
	// The two fills alternate rep by rep, so load that comes and goes on
	// a shared host lands on both sides of the ratio, not on one phase.
	runs, maps := time.Duration(1<<62), time.Duration(1<<62)
	timed := func(fill func()) time.Duration {
		t0 := time.Now()
		fill()
		return time.Since(t0)
	}
	for rep := 0; rep < 5; rep++ {
		runs = min(runs, timed(fillRuns))
		maps = min(maps, timed(fillMaps))
	}
	if top := s.TopRowsByDegree(1); s.NNZ() != n || len(top) != 1 || top[0] != (RowDegree{Row: "wide", Degree: n}) {
		t.Fatalf("wide row holds %d cells", s.NNZ())
	}
	verifyStoreInvariants(t, s)
	t.Logf("200k-cell row: runs %v, map-of-maps %v (%.2fx)", runs, maps, float64(runs)/float64(maps))
	if runs > 2*maps {
		t.Errorf("200k cells into one row took %v, more than twice the map-of-maps %v", runs, maps)
	}
}
