// Package tripled implements the database substrate behind D4M
// associative arrays: a triple store for the tables of the paper's
// pipeline (Accumulo at the MIT SuperCloud). A study publishes and reads
// its tables by row-key prefix, so the table is kept row-major only, and
// a row's degree — its cell count — is what makes "top-K heaviest
// sources" queries cheap at honeyfarm scale.
//
// The store is its rows in key order — one run keyed by row
// (internal/runs), the only container that holds them — under one
// read-write lock. A row is its cells as a run sorted by column; bulk
// mutations arrive as runs of same-row cells and cost one index seek
// per run, and the rows a batch opens in column order share one slab
// (putCells). A parsed mutation list is applied under one write lock
// (applyRuns), so a reader sees a BATCH whole or not at all.
// Everything ordered (CELLS and KEYS pages, the snapshot log, the
// export) is one walk, Store.page, which holds the read lock for one
// page and walks one cursor: a page is an atomic snapshot and costs
// O(log rows + page), not a walk of the store. The store is in-memory
// with an append-only change log for persistence, and server.go
// exposes it over a line-oriented TCP protocol (and bounds how many
// rows one page may hold the lock for).
package tripled

import (
	"bufio"
	"io"
	"slices"
	"strings"
	"sync"
	"unique"

	"repro/internal/assoc"
	"repro/internal/runs"
)

// Cell is one (row, col, value) triple, the unit of batched mutation.
type Cell struct {
	Row, Col string
	Val      assoc.Value
}

// validate refuses a cell whose keys or value cannot survive the line
// formats (BadKeyError, BadValueError).
func (c *Cell) validate() error {
	if err := validateKey(c.Row); err != nil {
		return err
	}
	if err := validateKey(c.Col); err != nil {
		return err
	}
	return validateValue(c.Val)
}

// CellKey addresses a cell without its value, the unit of batched
// deletion.
type CellKey struct {
	Row, Col string
}

// row is one row of the store: its values as a run sorted by column.
// Column names are interned (colName), so a stored cell shares its
// column's one string. Off the wire, a row's key and string values are
// cut from one string per row run ((*mutations).parse), so they pin
// that row's text and nothing else. A row a batch opens may be cut from
// the batch's slabs (slabRows): it owns its capped cut, which it grows
// out of without touching a neighbour's, while the slabs live until the
// last row cut from them goes; a row that empties is zeroed
// (Store.del), so a deleted one pins neither its key text nor cells.
type row struct {
	key   string
	cells runs.Run[assoc.Value]
}

// colName returns the canonical copy of a column name.
func colName(col string) string { return unique.Make(col).Value() }

// Store is a concurrency-safe triple store: its rows in key order —
// point lookups search the index, scans seek into it — under one lock.
// The degree table is not materialized: a row's degree is the length of
// its run. The helpers that take no lock (row, put, putCells, del,
// deleteBatch) run under mu, held by their caller.
type Store struct {
	mu    sync.RWMutex
	index runs.Run[*row] // every row under its key
	nnz   int
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{} }

// Put stores v at (row, col), replacing any existing value. Keys that
// would corrupt the mutation line (tab, newline, carriage return) are
// refused with a BadKeyError, and string values holding a newline or
// carriage return with a BadValueError, before any mutation.
func (s *Store) Put(row, col string, v assoc.Value) error {
	return s.PutBatch([]Cell{{Row: row, Col: col, Val: v}})
}

// row returns the row under key, or nil.
func (s *Store) row(key string) *row {
	if e := s.index.Get(key); e != nil {
		return e.Val
	}
	return nil
}

// put stores v under col in r, a row of the store.
func (s *Store) put(r *row, col string, v assoc.Value) {
	e, added := r.cells.Put(colName(col))
	if added {
		s.nnz++
	}
	e.Val = v
}

// PutBatch stores every cell under one write lock. Table iterations
// arrive row-major, so the batch is applied as runs of consecutive
// same-row cells, one row lookup per run. Validation is all-or-nothing:
// a single bad key or value rejects the whole batch with a BadKeyError
// or BadValueError before anything is applied.
func (s *Store) PutBatch(cells []Cell) error {
	for i := range cells {
		if err := cells[i].validate(); err != nil {
			return err
		}
	}
	s.mu.Lock()
	s.putCells(cells)
	s.mu.Unlock()
	return nil
}

// putCells is PutBatch for cells already validated (by PutBatch, or by
// (*mutations).parse before the WAL saw them). From the first run that
// opens a row in column order on, the batch's rows are laid out in one
// slab (slabRows), and a run that opens its row takes its slab row as
// it stands; a run whose row is held leaves its slab row unused. Every
// other run goes in cell by cell, the last of a repeated column
// winning, and a run whose row is held allocates nothing.
func (s *Store) putCells(cells []Cell) {
	var slab []row // the rest of the batch's runs, one row each
	for i, j := 0, 0; i < len(cells); i = j {
		key := cells[i].Row
		j = runEnd(cells, i)
		e, added := s.index.Put(key)
		if added && slab == nil && ascendingCols(cells[i:j]) {
			slab = slabRows(cells[i:])
		}
		if added && slab != nil {
			e.Val = &slab[0]
			s.nnz += e.Val.cells.Len()
		} else if added {
			e.Val = &row{key: key}
		}
		if r := e.Val; r.cells.NumBlocks() == 0 || !added {
			for _, c := range cells[i:j] {
				s.put(r, c.Col, c.Val)
			}
		}
		if slab != nil {
			slab = slab[1:]
		}
	}
}

// runEnd returns where the run of same-row cells starting at i ends.
func runEnd(cells []Cell, i int) int {
	j := i + 1
	for j < len(cells) && cells[j].Row == cells[i].Row {
		j++
	}
	return j
}

// slabRows lays out cells as one row per run of same-row cells, the
// rows sharing one allocation and their cells another, cut into runs
// by runs.Cut. A run in ascending column order is its row's cells as
// it stands; any other leaves its row empty, to be filled cell by cell.
func slabRows(cells []Cell) []row {
	var ends []int
	entries := make([]runs.Entry[assoc.Value], 0, len(cells))
	for i, j := 0, 0; i < len(cells); i = j {
		j = runEnd(cells, i)
		if ascendingCols(cells[i:j]) {
			for _, c := range cells[i:j] {
				entries = append(entries, runs.Entry[assoc.Value]{Key: colName(c.Col), Val: c.Val})
			}
		}
		ends = append(ends, len(entries))
	}
	rows, i := make([]row, len(ends)), 0
	for k, r := range runs.Cut(entries, ends) {
		rows[k], i = row{key: cells[i].Row, cells: r}, runEnd(cells, i)
	}
	return rows
}

// ascendingCols reports whether the cells' columns strictly ascend.
func ascendingCols(cells []Cell) bool {
	for i := 1; i < len(cells); i++ {
		if cells[i-1].Col >= cells[i].Col {
			return false
		}
	}
	return true
}

// Get returns the value at (row, col).
func (s *Store) Get(row, col string) (assoc.Value, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if r := s.row(row); r != nil {
		if e := r.cells.Get(col); e != nil {
			return e.Val, true
		}
	}
	return assoc.Value{}, false
}

// Delete removes the cell if present and reports whether it existed.
func (s *Store) Delete(row, col string) bool {
	s.mu.Lock()
	ok := s.del(row, col)
	s.mu.Unlock()
	return ok
}

func (s *Store) del(key, col string) bool {
	r := s.row(key)
	if r == nil {
		return false
	}
	if _, ok := r.cells.Delete(col); !ok {
		return false
	}
	if r.cells.NumBlocks() == 0 {
		s.index.Delete(key)
		*r = row{} // a slab row gone pins neither its key text nor its cells
	}
	s.nnz--
	return true
}

// deleteBatch removes every addressed cell and returns how many
// existed.
func (s *Store) deleteBatch(keys []CellKey) int {
	deleted := 0
	for _, k := range keys {
		if s.del(k.Row, k.Col) {
			deleted++
		}
	}
	return deleted
}

// NNZ returns the number of stored cells.
func (s *Store) NNZ() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.nnz
}

// page is the one ordered walk: it calls visit with up to limit rows r
// with r >= start, r < end (empty end = unbounded) and r > cursor when
// cursor is non-empty, in key order, and reports whether rows remain
// past them. A limit <= 0 means unlimited; the last row visited is the
// cursor that continues the walk. The store is read-locked for the
// whole page, so the page is an atomic snapshot and visit reads each
// row in place. One cursor, seeked to the lower bound, touches limit + 1
// index entries.
func (s *Store) page(start, end string, limit int, cursor string, visit func(*row)) (more bool) {
	lo, strict := start, false
	if cursor != "" && cursor >= start {
		lo, strict = cursor, true
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	for c, n := s.index.Seek(lo, strict), 0; c.Head() != nil; c.Next() {
		e := c.Head()
		if end != "" && e.Key >= end {
			return false
		}
		if limit > 0 && n == limit {
			return true
		}
		visit(e.Val)
		n++
	}
	return false
}

// appendCells returns every cell of up to limit rows of the paged row
// walk page defines, sorted by (row, col), plus the more flag. It is
// the bulk-export query: one round trip per page instead of one query
// per key, at O(page selection + cells returned). The page is
// one atomic snapshot (page), so a row in it is whole and a page is
// empty only when the scan is done. The page's cells are appended to
// dst, so a caller serving page after page reuses one buffer instead of
// allocating a page-sized one each time.
func (s *Store) appendCells(dst []Cell, start, end string, limit int, cursor string) ([]Cell, bool) {
	more := s.page(start, end, limit, cursor, func(r *row) {
		for e := range r.cells.All() {
			dst = append(dst, Cell{Row: r.key, Col: e.Key, Val: e.Val})
		}
	})
	return dst, more
}

// appendKeys is appendCells' page as its row keys alone, in order: what
// KEYS serves, at O(page selection + rows returned).
func (s *Store) appendKeys(dst []string, start, end string, limit int, cursor string) ([]string, bool) {
	more := s.page(start, end, limit, cursor, func(r *row) { dst = append(dst, r.key) })
	return dst, more
}

// TopRowsByDegree returns up to k (row, degree) pairs with the largest
// degrees, ties broken lexicographically — the degree-table query D4M
// deployments use to find the heaviest sources without scanning values.
func (s *Store) TopRowsByDegree(k int) []RowDegree {
	if k <= 0 {
		return nil
	}
	var out []RowDegree
	s.mu.RLock()
	for e := range s.index.All() {
		out = append(out, RowDegree{Row: e.Key, Degree: e.Val.cells.Len()})
	}
	s.mu.RUnlock()
	slices.SortFunc(out, func(a, b RowDegree) int {
		if a.Degree != b.Degree {
			return b.Degree - a.Degree
		}
		return strings.Compare(a.Row, b.Row)
	})
	return out[:min(k, len(out))]
}

// RowDegree pairs a row key with its degree-table count.
type RowDegree struct {
	Row    string
	Degree int
}

// LoadAssoc bulk-inserts an associative array.
func (s *Store) LoadAssoc(a *assoc.Assoc) error {
	cells := make([]Cell, 0, a.NNZ())
	a.Iterate(func(row, col string, v assoc.Value) bool {
		cells = append(cells, Cell{Row: row, Col: col, Val: v})
		return true
	})
	return s.PutBatch(cells)
}

// ToAssoc exports the full table as an associative array. The export
// is an atomic snapshot: the store is held read-locked for its
// duration, so no concurrent mutation can tear it.
func (s *Store) ToAssoc() *assoc.Assoc {
	out := assoc.New()
	s.page("", "", 0, "", func(r *row) {
		run := make([]assoc.Cell, 0, r.cells.Len())
		for c := range r.cells.All() {
			run = append(run, assoc.Cell{Key: c.Key, Val: c.Val})
		}
		out.SetRow(r.key, run) // ascending by construction
	})
	return out
}

// WriteLog appends the entire table to w as mutation lines, one
// "PUT\trow\tcol\t<n|s>\t<value>" line per cell — the line a client
// sends and the WAL logs, so recovery replays the snapshot through the
// same parser as the records after it. Like ToAssoc, the log is an
// atomic snapshot: the store stays read-locked until the last line
// is buffered, so the log always corresponds to a state the store
// actually held.
func (s *Store) WriteLog(w io.Writer) error {
	bw := bufio.NewWriter(w)
	s.page("", "", 0, "", func(r *row) {
		for e := range r.cells.All() {
			line := appendPut(bw.AvailableBuffer(), r.key, e.Key, e.Val)
			bw.Write(append(line, '\n')) // a write error is sticky: Flush returns it
		}
	})
	return bw.Flush()
}
