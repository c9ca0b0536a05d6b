package assoc

// oracle_test.go keeps the map-of-maps associative array — row -> col
// -> value, a hash map per row — that Assoc was before a row became a
// sorted run, as the model the run layout is diffed against.

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"
)

type mapAssoc map[string]map[string]Value

func (m mapAssoc) set(row, col string, v Value) {
	r, ok := m[row]
	if !ok {
		r = make(map[string]Value)
		m[row] = r
	}
	r[col] = v
}

// mapCounted is the model as Assoc ran it: the same maps plus the NNZ
// count Set kept by looking the cell up before assigning it — the cost
// the wide-row guard compares against.
type mapCounted struct {
	cells mapAssoc
	nnz   int
}

func (a *mapCounted) set(row, col string, v Value) {
	r, ok := a.cells[row]
	if !ok {
		r = make(map[string]Value)
		a.cells[row] = r
	}
	if _, exists := r[col]; !exists {
		a.nnz++
	}
	r[col] = v
}

func (m mapAssoc) del(row, col string) {
	if r, ok := m[row]; ok {
		delete(r, col)
		if len(r) == 0 {
			delete(m, row)
		}
	}
}

func (m mapAssoc) nnz() int {
	n := 0
	for _, r := range m {
		n += len(r)
	}
	return n
}

type triple struct {
	row, col string
	v        Value
}

// triples is the model in sorted row-major order, what Iterate visits.
func (m mapAssoc) triples() []triple {
	var out []triple
	for row, r := range m {
		for c, v := range r {
			out = append(out, triple{row, c, v})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].row != out[j].row {
			return out[i].row < out[j].row
		}
		return out[i].col < out[j].col
	})
	return out
}

// diffAssoc compares every read of a against the model.
func diffAssoc(t *testing.T, what string, a *Assoc, m mapAssoc) {
	t.Helper()
	var got []triple
	a.Iterate(func(row, col string, v Value) bool {
		got = append(got, triple{row, col, v})
		return true
	})
	want := m.triples()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Iterate visits\n%v\nmodel\n%v", what, got, want)
	}
	if a.NNZ() != m.nnz() || a.NRows() != len(m) {
		t.Fatalf("%s: NNZ=%d NRows=%d, model %d %d", what, a.NNZ(), a.NRows(), m.nnz(), len(m))
	}
	rows := make([]string, 0, len(m))
	cols := map[string]bool{}
	for row, r := range m {
		rows = append(rows, row)
		if !a.HasRow(row) {
			t.Fatalf("%s: HasRow(%q) = false", what, row)
		}
		if got := a.Row(row); !reflect.DeepEqual(got, r) {
			t.Fatalf("%s: Row(%q) = %v, model %v", what, row, got, r)
		}
		for c, v := range r {
			cols[c] = true
			if got, ok := a.Get(row, c); !ok || got != v {
				t.Fatalf("%s: Get(%q,%q) = %v,%v, model %v", what, row, c, got, ok, v)
			}
		}
		if _, ok := a.Get(row, "no such column"); ok {
			t.Fatalf("%s: Get of an absent column found a cell", what)
		}
	}
	sort.Strings(rows)
	if got := a.RowKeys(); !reflect.DeepEqual(got, rows) && len(got)+len(rows) > 0 {
		t.Fatalf("%s: RowKeys = %v, model %v", what, got, rows)
	}
	if got := a.ColKeys(); len(got) != len(cols) || !sort.StringsAreSorted(got) {
		t.Fatalf("%s: ColKeys = %v, model has %d", what, got, len(cols))
	}
	if a.HasRow("no such row") || a.Row("no such row") != nil {
		t.Fatalf("%s: absent row present", what)
	}
}

// TestAssocMatchesMapOracle is the model-based differential test of the
// run layout: random Set/SetRow/SetRows/Delete on two arrays and their
// map-of-maps models, every read compared after every step — RowKeys
// against the sorted map keys among them, whichever way the list was
// kept: slabs arrive in key order, shuffled, or as a tail past every row
// held (a fetched table's pages, which extend the list in place), with a
// reader's RowKeys before them or not. Every list a reader was handed
// must stay what it was through everything that follows.
func TestAssocMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	var rowSpace, colSpace []string
	for i := 0; i < 12; i++ {
		rowSpace = append(rowSpace, fmt.Sprintf("r%02d", i))
	}
	for i := 0; i < 8; i++ {
		colSpace = append(colSpace, fmt.Sprintf("c%d", i))
	}
	pick := func(space []string) string { return space[rng.Intn(len(space))] }
	val := func() Value {
		if rng.Intn(3) > 0 {
			return Num(float64(rng.Intn(20)))
		}
		return Str(fmt.Sprintf("s%d", rng.Intn(20)))
	}
	arrays := [2]*Assoc{New(), New()}
	models := [2]mapAssoc{{}, {}}
	type heldKeys struct{ got, was []string }
	var held []heldKeys // the last few RowKeys results, and what they held when returned
	checkHeld := func(what string) {
		t.Helper()
		for _, h := range held {
			if !slices.Equal(h.got, h.was) {
				t.Fatalf("%s: a RowKeys result handed out earlier changed from %q to %q", what, h.was, h.got)
			}
		}
	}
	steps := 3000
	if testing.Short() {
		steps = 500
	}
	for step := 0; step < steps; step++ {
		k := rng.Intn(2)
		a, m := arrays[k], models[k]
		what := ""
		switch op := rng.Intn(11); {
		case op == 10:
			// A slab of whole rows, all new to the array: drop a few rows
			// and hand them back together, so that every later step works
			// on rows that are neighbours in one slab.
			var keys []string
			var ends []int
			var slab []Cell
			const inOrder, shuffled, tail = 0, 1, 2
			order, cut := rng.Intn(3), rng.Intn(len(rowSpace))
			for i, r := range rowSpace {
				if order == tail && i < cut {
					continue
				}
				if order == tail || rng.Intn(3) == 0 { // a tail leaves nothing held past its first row
					if err := a.SetRow(r, nil); err != nil {
						t.Fatal(err)
					}
					delete(m, r)
				}
				if rng.Intn(3) > 0 {
					continue
				}
				if m[r] != nil {
					continue
				}
				n := len(slab)
				for _, c := range colSpace {
					if rng.Intn(2) == 0 {
						slab = append(slab, Cell{Key: c, Val: val()})
						m.set(r, c, slab[len(slab)-1].Val)
					}
				}
				if len(slab) > n {
					keys, ends = append(keys, r), append(ends, len(slab))
				}
			}
			if order == shuffled { // rows keep their cells, in another order
				rows := make(map[string][]Cell, len(keys))
				lo := 0
				for i, r := range keys {
					rows[r] = slab[lo:ends[i]]
					lo = ends[i]
				}
				rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
				var mixed []Cell
				for i, r := range keys {
					mixed = append(mixed, rows[r]...)
					ends[i] = len(mixed)
				}
				slab = mixed
			}
			read := rng.Intn(2) == 0 // a reader asks for the keys between the removals and the slab
			if read {
				got := a.RowKeys()
				held = append(held, heldKeys{got, slices.Clone(got)})
			}
			what = fmt.Sprintf("step %d: SetRows(%q, %d cells, order %d, read %v)", step, keys, len(slab), order, read)
			if err := a.SetRows(keys, ends, slab); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if order == tail && len(keys) > 0 && (read || len(m) == len(keys)) && a.rowKeys.Load() == nil {
				t.Fatalf("%s: rows past every row held invalidated a current key list", what)
			}
		case op < 5:
			r, c, v := pick(rowSpace), pick(colSpace), val()
			what = fmt.Sprintf("step %d: Set(%q,%q,%v)", step, r, c, v)
			a.Set(r, c, v)
			m.set(r, c, v)
		case op < 8:
			r, c := pick(rowSpace), pick(colSpace)
			what = fmt.Sprintf("step %d: Delete(%q,%q)", step, r, c)
			a.Delete(r, c)
			m.del(r, c)
		default:
			// A whole row: replaces whatever the row held; empty removes it.
			r := pick(rowSpace)
			var run []Cell
			for _, c := range colSpace {
				if rng.Intn(3) == 0 {
					run = append(run, Cell{Key: c, Val: val()})
				}
			}
			what = fmt.Sprintf("step %d: SetRow(%q, %d cells)", step, r, len(run))
			delete(m, r)
			for _, c := range run {
				m.set(r, c.Key, c.Val)
			}
			if err := a.SetRow(r, run); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		}
		diffAssoc(t, what, a, m)
		checkHeld(what)
		held = held[max(0, len(held)-8):]
	}

	// A fetched table: page after page of rows past every row held, a
	// reader between the pages. The list is extended, never rebuilt, and
	// grows in place once it has room — so every list handed out on the
	// way is checked to the end. Now and then a Set or Delete of a whole
	// row, a slab in descending order or one that sorts before the
	// table's last row interrupts, and the list must be right after each.
	a, m := New(), mapAssoc{}
	held = held[:0]
	next := 0
	fresh := func(format string, n int) (keys []string, ends []int, slab []Cell) {
		for i := 0; i < n; i++ {
			keys, ends = append(keys, fmt.Sprintf(format, next)), append(ends, i+1)
			slab = append(slab, Cell{Key: "c", Val: Num(float64(next))})
			m.set(keys[i], "c", slab[i].Val)
			next++
		}
		return keys, ends, slab
	}
	for page := 0; page < 60; page++ {
		got := a.RowKeys()
		held = append(held, heldKeys{got, slices.Clone(got)})
		keys, ends, slab := fresh("p%04d", 1+page%7)
		what := fmt.Sprintf("page %d", page)
		if err := a.SetRows(keys, ends, slab); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if a.rowKeys.Load() == nil {
			t.Fatalf("%s: a page past every row held invalidated the key list", what)
		}
		diffAssoc(t, what, a, m)
		switch page % 10 {
		case 3:
			what += ", then Set of a new row inside the table"
			a.Set(keys[0]+"x", "c", Num(1))
			m.set(keys[0]+"x", "c", Num(1))
		case 5:
			what += ", then Delete of a whole row"
			a.Delete(keys[0], "c")
			m.del(keys[0], "c")
		case 7:
			what += ", then a descending slab"
			keys, ends, slab = fresh("p%04d", 3)
			slices.Reverse(keys)
			slices.Reverse(slab)
			m.set(keys[0], "c", slab[0].Val)
			m.set(keys[2], "c", slab[2].Val)
			if err := a.SetRows(keys, ends, slab); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		case 9:
			what += ", then a slab before the last row"
			keys, ends, slab = fresh("o%04d", 2)
			if err := a.SetRows(keys, ends, slab); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		}
		diffAssoc(t, what, a, m)
		checkHeld(what)
	}
}

// TestSetRowRefusesUnsortedOrDuplicateRuns: SetRow takes the run as the
// row's storage, so a run it cannot search is refused and the array is
// left as it was.
func TestSetRowRefusesUnsortedOrDuplicateRuns(t *testing.T) {
	a := New()
	a.Set("r", "keep", Num(1))
	for _, bad := range [][]Cell{
		{{Key: "b", Val: Num(1)}, {Key: "a", Val: Num(2)}},
		{{Key: "a", Val: Num(1)}, {Key: "a", Val: Num(2)}},
		{{Key: "a", Val: Num(1)}, {Key: "c", Val: Num(2)}, {Key: "b", Val: Num(3)}},
	} {
		if err := a.SetRow("r", bad); err == nil {
			t.Errorf("SetRow(%v) accepted", bad)
		}
		if err := a.SetRow("new", bad); err == nil {
			t.Errorf("SetRow(new row, %v) accepted", bad)
		}
	}
	diffAssoc(t, "after refusals", a, mapAssoc{"r": {"keep": Num(1)}})
	// Replacing and removing a row keep NNZ and the RowKeys cache in step.
	_ = a.RowKeys()
	if err := a.SetRow("r", []Cell{{Key: "a", Val: Num(1)}, {Key: "b", Val: Str("x")}}); err != nil {
		t.Fatal(err)
	}
	diffAssoc(t, "after replace", a, mapAssoc{"r": {"a": Num(1), "b": Str("x")}})
	if err := a.SetRow("s", []Cell{{Key: "a", Val: Num(2)}}); err != nil {
		t.Fatal(err)
	}
	diffAssoc(t, "after new row", a, mapAssoc{"r": {"a": Num(1), "b": Str("x")}, "s": {"a": Num(2)}})
	if err := a.SetRow("r", nil); err != nil {
		t.Fatal(err)
	}
	diffAssoc(t, "after removal", a, mapAssoc{"s": {"a": Num(2)}})
}

// TestSetRowsRefusals: the bulk hand-over holds every row to SetRow's
// contract and the slab to its cuts, and a refusal — at the first row or
// after a thousand good ones — leaves the array as it was.
func TestSetRowsRefusals(t *testing.T) {
	cells := func(cols ...string) []Cell {
		out := make([]Cell, len(cols))
		for i, c := range cols {
			out[i] = Cell{Key: c, Val: Num(float64(i))}
		}
		return out
	}
	a := NewSized(4)
	a.Set("held", "keep", Num(1))
	if err := a.SetRows([]string{"s1", "s2"}, []int{2, 3}, cells("a", "b", "a")); err != nil {
		t.Fatal(err)
	}
	model := mapAssoc{"held": {"keep": Num(1)}, "s1": {"a": Num(0), "b": Num(1)}, "s2": {"a": Num(2)}}
	diffAssoc(t, "after a good hand-over", a, model)
	keys := a.RowKeys()

	many := make([]string, 1000)
	manyEnds := make([]int, 1000)
	for i := range many {
		many[i], manyEnds[i] = fmt.Sprintf("m%04d", i), i+1
	}
	for _, c := range []struct {
		why  string
		keys []string
		ends []int
		slab []Cell
	}{
		{"an unsorted row", []string{"x", "y"}, []int{1, 3}, cells("a", "c", "b")},
		{"a column twice in a row", []string{"x"}, []int{2}, cells("a", "a")},
		{"a slab longer than its rows", []string{"x"}, []int{1}, cells("a", "b")},
		{"a slab shorter than its rows", []string{"x", "y"}, []int{1, 3}, cells("a", "b")},
		{"fewer ends than keys", []string{"x", "y"}, []int{2}, cells("a", "b")},
		{"fewer keys than ends", []string{"x"}, []int{1, 2}, cells("a", "b")},
		{"keys and no cells", []string{"x"}, nil, nil},
		{"an empty row", []string{"x", "y"}, []int{1, 1}, cells("a")},
		{"ends going backwards", []string{"x", "y", "z"}, []int{2, 1, 3}, cells("a", "b", "c")},
		{"a key twice", []string{"x", "y", "x"}, []int{1, 2, 3}, cells("a", "a", "a")},
		{"a key the array holds", []string{"x", "held"}, []int{1, 2}, cells("a", "a")},
		{"a key twice after many good rows", append(slices.Clone(many), "m0500"), append(slices.Clone(manyEnds), 1001), make([]Cell, 1001)},
	} {
		if c.why == "a key twice after many good rows" {
			for i := range c.slab {
				c.slab[i] = Cell{Key: "a", Val: Num(1)}
			}
		}
		if err := a.SetRows(c.keys, c.ends, c.slab); err == nil {
			t.Errorf("SetRows accepted %s", c.why)
		}
		diffAssoc(t, "after refusing "+c.why, a, model)
		if got := a.RowKeys(); &got[0] != &keys[0] {
			t.Errorf("refusing %s dropped the RowKeys cache", c.why)
		}
	}
	if err := a.SetRows(nil, nil, nil); err != nil {
		t.Errorf("SetRows of no rows: %v", err)
	}
	diffAssoc(t, "after no rows", a, model)
}

// TestWideRowSetStaysLogarithmic is the wide-row guard: a row run must
// not assume it is narrow, so 200k cells set into one row in random
// column order are timed against the map-of-maps layout. A search of
// a sorted run is O(log c) string compares on cold keys where the map
// paid two hashes, and measures 2.5-3x the map here; the bound is set
// where only a per-cell cost growing with the row's width can cross it
// (a flat sorted slice, moving half the row per insert, is over 100x).
func TestWideRowSetStaysLogarithmic(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("timing comparison")
	}
	const n = 200_000
	cols := make([]string, n)
	for i, j := range rand.New(rand.NewSource(9)).Perm(n) {
		cols[i] = fmt.Sprintf("col%06d", j)
	}
	best := func(fill func()) time.Duration {
		d := time.Duration(1 << 62)
		for rep := 0; rep < 3; rep++ {
			t0 := time.Now()
			fill()
			d = min(d, time.Since(t0))
		}
		return d
	}
	var a *Assoc
	runs := best(func() {
		a = New()
		for i, c := range cols {
			a.Set("wide", c, Num(float64(i)))
		}
	})
	maps := best(func() {
		m := mapCounted{cells: mapAssoc{}}
		for i, c := range cols {
			m.set("wide", c, Num(float64(i)))
		}
	})
	if a.NNZ() != n {
		t.Fatalf("wide row holds %d cells", a.NNZ())
	}
	if v, ok := a.Get("wide", "col123456"); !ok || !v.Numeric {
		t.Fatal("wide row lost a cell")
	}
	t.Logf("200k-cell row: runs %v, map-of-maps %v (%.2fx)", runs, maps, float64(runs)/float64(maps))
	if runs > 5*maps {
		t.Errorf("200k cells into one row took %v, more than 5x the map-of-maps %v", runs, maps)
	}
}
