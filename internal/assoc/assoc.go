// Package assoc implements D4M-style associative arrays: sparse
// two-dimensional tables indexed by string row and column keys, the
// representation the paper uses for GreyNoise honeyfarm data and for the
// reduced CAIDA results at the correlation boundary ("After the unique
// sources and packet counts are computed ... the reduced results are
// converted to D4M associative arrays").
//
// An entry holds either a number or a string.
// The paper's example
//
//	At('1.1.1.1', '2.2.2.2') = '3'
//
// is Set("1.1.1.1", "2.2.2.2", Num(3)).
//
// The tables of the paper have many rows and a handful of columns, and
// are built, published and fetched whole rows at a time. The
// representation follows: a hash map from row key to the row's cells as
// a run sorted by column (internal/runs). SetRow hands a whole row over
// in one map operation and SetRows a whole slab of rows in one
// allocation; Set, Get and Delete search the run; every walk is in
// column order as it stands.
package assoc

import (
	"fmt"
	"iter"
	"maps"
	"slices"
	"sort"
	"strconv"
	"sync/atomic"

	"repro/internal/runs"
)

// Value is a cell value: either numeric or a string.
type Value struct {
	Str     string
	Num     float64
	Numeric bool
}

// Num returns a numeric Value.
func Num(v float64) Value { return Value{Num: v, Numeric: true} }

// Str returns a string Value.
func Str(s string) Value { return Value{Str: s} }

// String renders the value the way D4M TSV files store it.
func (v Value) String() string {
	if v.Numeric {
		return strconv.FormatFloat(v.Num, 'g', -1, 64)
	}
	return v.Str
}

// Cell is one (column, value) pair of a row: Key is the column.
type Cell = runs.Entry[Value]

// Assoc is a mutable associative array. The zero value is not usable;
// call New.
//
// A row is its cells as a run sorted by column, no column twice
// (internal/runs): reads binary-search it, walks need no per-row key
// slice or sort, and a whole row arrives or leaves in one map
// operation (SetRow).
type Assoc struct {
	rows map[string]runs.Run[Value]
	nnz  int

	// rowKeys caches the sorted row-key slice RowKeys returns; it is
	// invalidated (set nil) whenever a row appears or disappears, except
	// that rows arriving in order past its end extend it (SetRows). The
	// correlation and TSV paths call RowKeys per table per pass, so the
	// sort must not be paid on every call. The pointer is atomic so the
	// lazily built cache preserves the map's reader guarantee:
	// concurrent RowKeys calls (and other reads) are safe; mutation
	// still requires external exclusion, exactly as before.
	rowKeys atomic.Pointer[[]string]
}

// New returns an empty associative array.
func New() *Assoc { return NewSized(0) }

// NewSized returns an empty associative array with room for rows rows,
// for a builder that knows how many it is about to hand over: the row
// map is made at its final size instead of growing there by rehashing.
func NewSized(rows int) *Assoc {
	return &Assoc{rows: make(map[string]runs.Run[Value], rows)}
}

// Set stores v at (row, col), replacing any existing value.
func (a *Assoc) Set(row, col string, v Value) {
	r, ok := a.rows[row]
	if !ok {
		a.rowKeys.Store(nil)
	}
	nb := r.NumBlocks()
	e, added := r.Put(col)
	e.Val = v
	if added {
		a.nnz++
	}
	if r.NumBlocks() != nb { // a new row or a split block: the header moved
		a.rows[row] = r
	}
}

// SetRow makes cells the whole of row, replacing any cells it held, in
// one map operation. The cells must be in strictly ascending column
// order; anything else is refused and changes nothing. SetRow takes
// ownership of the slice. No cells removes the row.
func (a *Assoc) SetRow(row string, cells []Cell) error {
	if !runs.IsAscending(cells) {
		return fmt.Errorf("assoc: row %q: cells not in strictly ascending column order", row)
	}
	old, ok := a.rows[row]
	if ok != (len(cells) > 0) {
		a.rowKeys.Store(nil)
	}
	a.nnz += len(cells) - old.Len()
	if len(cells) == 0 {
		delete(a.rows, row)
	} else {
		a.rows[row] = runs.Of(cells)
	}
	return nil
}

// SetRows is SetRow for many new rows at once: row keys[i] becomes the
// cells slab[ends[i-1]:ends[i]] (from 0 for the first). Every row is
// held to SetRow's contract — at least one cell, strictly ascending
// column order — the ends must cut the slab exactly, one per key, and
// no key may be in the array already or appear twice; anything else is
// refused and changes nothing. Neither keys nor ends is kept.
//
// SetRows takes ownership of the slab, and the rows keep it as their
// storage: they share its backing array and one block-header
// allocation, so a table of n rows built this way costs a handful of
// allocations, not a few per row. Each row is a capped cut, so a row
// that later grows (Set on a new column), splits or is deleted touches
// only its own cells. What a caller must know is the lifetime: the
// array holds the whole slab, and whatever the cells' strings point
// into, until the last row handed over with it is gone — deleting most
// rows of a slab-built table frees nothing.
func (a *Assoc) SetRows(keys []string, ends []int, slab []Cell) error {
	if len(ends) != len(keys) {
		return fmt.Errorf("assoc: %d row keys for %d rows", len(keys), len(ends))
	}
	lo := 0
	for i, hi := range ends {
		if hi <= lo || hi > len(slab) {
			return fmt.Errorf("assoc: row %q: cells [%d:%d] of a %d-cell slab", keys[i], lo, hi, len(slab))
		}
		if !runs.IsAscending(slab[lo:hi]) {
			return fmt.Errorf("assoc: row %q: cells not in strictly ascending column order", keys[i])
		}
		lo = hi
	}
	if lo != len(slab) {
		return fmt.Errorf("assoc: rows end at cell %d of a %d-cell slab", lo, len(slab))
	}
	for i, r := range runs.Cut(slab, ends) {
		if _, held := a.rows[keys[i]]; held {
			for _, k := range keys[:i] {
				delete(a.rows, k)
			}
			return fmt.Errorf("assoc: row %q is already in the array", keys[i])
		}
		a.rows[keys[i]] = r
	}
	if len(keys) > 0 {
		a.extendRowKeys(keys)
		a.nnz += len(slab)
	}
	return nil
}

// extendRowKeys accounts for the new rows keys in the sorted key list.
// When the list is current (or the array held no row before them) and
// the keys ascend from past its last — the pages of a fetched table, one
// after the other — they are appended to it, so such a table never
// sorts; anything else invalidates it. The append lands past the length
// of every slice RowKeys has handed out and never inside one, so a
// reader still holding an earlier list keeps exactly what it was given.
func (a *Assoc) extendRowKeys(keys []string) {
	var sorted []string // every row but the new ones, in order
	if p := a.rowKeys.Load(); p != nil {
		sorted = *p
	} else if len(a.rows) > len(keys) {
		return // no current list to keep
	}
	if (len(sorted) == 0 || keys[0] > sorted[len(sorted)-1]) && slices.IsSorted(keys) {
		sorted = append(sorted, keys...)
		a.rowKeys.Store(&sorted)
	} else {
		a.rowKeys.Store(nil)
	}
}

// Get returns the value at (row, col) and whether it exists.
func (a *Assoc) Get(row, col string) (Value, bool) {
	r := a.rows[row]
	if e := r.Get(col); e != nil {
		return e.Val, true
	}
	return Value{}, false
}

// Delete removes the entry at (row, col) if present.
func (a *Assoc) Delete(row, col string) {
	r, ok := a.rows[row]
	if !ok {
		return
	}
	nb := r.NumBlocks()
	if _, ok := r.Delete(col); !ok {
		return
	}
	a.nnz--
	switch r.NumBlocks() {
	case nb:
	case 0:
		delete(a.rows, row)
		a.rowKeys.Store(nil)
	default:
		a.rows[row] = r
	}
}

// NNZ returns the number of stored cells.
func (a *Assoc) NNZ() int { return a.nnz }

// NRows returns the number of non-empty rows.
func (a *Assoc) NRows() int { return len(a.rows) }

// RowKeys returns the sorted row keys. The slice is cached until a row
// is added or removed and is shared across calls: callers must not
// modify it, and it stays what it was when a later mutation changes
// the array. Like every read, RowKeys is safe for concurrent readers
// (racing first calls each build the same slice; one wins the store).
func (a *Assoc) RowKeys() []string {
	if p := a.rowKeys.Load(); p != nil {
		return *p
	}
	keys := make([]string, 0, len(a.rows))
	for k := range a.rows {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	a.rowKeys.Store(&keys)
	return keys
}

// Rows visits every row once, in no set order, with its cells as a run
// sorted by column: the walk for a caller that needs each row but not
// the row order, which RowKeys would sort for. The runs are the array's
// own and read-only.
func (a *Assoc) Rows() iter.Seq2[string, runs.Run[Value]] { return maps.All(a.rows) }

// ColKeys returns the sorted distinct column keys.
func (a *Assoc) ColKeys() []string {
	set := make(map[string]bool)
	for _, r := range a.rows {
		for e := range r.All() {
			set[e.Key] = true
		}
	}
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// HasRow reports whether the row key is present.
func (a *Assoc) HasRow(row string) bool {
	_, ok := a.rows[row]
	return ok
}

// Row returns a copy of the row as a col->value map (nil if absent).
func (a *Assoc) Row(row string) map[string]Value {
	r, ok := a.rows[row]
	if !ok {
		return nil
	}
	out := make(map[string]Value, r.Len())
	for e := range r.All() {
		out[e.Key] = e.Val
	}
	return out
}

// Iterate visits every cell in sorted row-major order; stops early if fn
// returns false.
func (a *Assoc) Iterate(fn func(row, col string, v Value) bool) {
	for _, row := range a.RowKeys() {
		for e := range a.rows[row].All() {
			if !fn(row, e.Key, e.Val) {
				return
			}
		}
	}
}

// String summarizes the array shape.
func (a *Assoc) String() string {
	return fmt.Sprintf("assoc.Assoc{rows: %d, cols: %d, nnz: %d}",
		a.NRows(), len(a.ColKeys()), a.NNZ())
}
