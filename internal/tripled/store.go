// Package tripled implements the database substrate behind D4M
// associative arrays: a triple store with the "D4M schema" used by the
// paper's pipeline (Accumulo at the MIT SuperCloud) — the table is kept
// row-major with a column-major (transpose) membership index beside it,
// so row and column lookups are both O(result), and degree tables track
// per-row and per-column cell counts, the trick that makes "top-K
// heaviest sources" queries cheap at honeyfarm scale.
//
// The store is sharded across stripes keyed by row hash: each stripe
// has its own lock, rows, column membership, and ordered row-key index,
// so writers on different rows never contend. A row is its cells as a
// run sorted by column (internal/runs), each value stored once; bulk
// mutations arrive as runs of same-row cells and cost one stripe hash
// and one row lookup per run. Column queries and degree-table reads
// merge the per-stripe tables on demand; range scans seek each stripe's
// ordered index and merge the runs, so a page costs O(log rows + page),
// not a walk of the store. The store is in-memory with an append-only
// change log for persistence, and server.go exposes it over a
// line-oriented TCP protocol.
package tripled

import (
	"bufio"
	"fmt"
	"hash/maphash"
	"io"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/assoc"
	"repro/internal/runs"
)

// DefaultStripes is the stripe count of NewStore, enough that a
// handful of ingest connections rarely collide on a lock.
const DefaultStripes = 16

// Cell is one (row, col, value) triple, the unit of batched mutation.
type Cell struct {
	Row, Col string
	Val      assoc.Value
}

// validate refuses a cell whose keys or value cannot survive the line
// formats (BadKeyError, BadValueError).
func (c *Cell) validate() error {
	if err := ValidateKey(c.Row); err != nil {
		return err
	}
	if err := ValidateKey(c.Col); err != nil {
		return err
	}
	return ValidateValue(c.Val)
}

// CellKey addresses a cell without its value, the unit of batched
// deletion.
type CellKey struct {
	Row, Col string
}

// row is one row of a stripe: its cells as a run sorted by column.
type row struct {
	key   string
	cells runs.Run[cell]
}

// cell is what a row's run holds under a column name: the value — the
// store's only copy — and where the row sits in that column's member
// list, so leaving the column is a swap with the list's last member.
type cell struct {
	val assoc.Value
	pos int
}

// column is the transpose of one column: the rows of this stripe that
// hold it, in no particular order. Its name is the one string every
// cell of the column keys its run entry with.
type column struct {
	name string
	rows []*row
}

// stripe is one shard of the table: its rows, the column membership
// restricted to them, and the ordered set of its row keys that range
// scans seek into. Degree tables are not materialized — a row's degree
// is the length of its run and a column's per-stripe degree is its
// member count, merged on demand.
type stripe struct {
	mu    sync.RWMutex
	rows  map[string]*row
	cols  map[string]*column
	index runs.Run[struct{}] // the keys of rows, ordered
	nnz   int
}

// Store is a concurrency-safe triple store sharded over row-hash
// stripes. The zero value is not usable; call NewStore.
type Store struct {
	stripes []*stripe
	seed    maphash.Seed
	version atomic.Uint64 // bumped on every mutation
}

// NewStore returns an empty store with DefaultStripes stripes.
func NewStore() *Store { return NewStoreStripes(DefaultStripes) }

// NewStoreStripes returns an empty store sharded over n stripes.
// n = 1 degenerates to a single-lock store, the serial oracle the
// concurrency tests diff against.
func NewStoreStripes(n int) *Store {
	if n < 1 {
		n = 1
	}
	s := &Store{stripes: make([]*stripe, n), seed: maphash.MakeSeed()}
	for i := range s.stripes {
		s.stripes[i] = &stripe{
			rows: make(map[string]*row),
			cols: make(map[string]*column),
		}
	}
	return s
}

func (s *Store) stripeFor(row string) *stripe {
	if len(s.stripes) == 1 {
		return s.stripes[0]
	}
	return s.stripes[maphash.String(s.seed, row)%uint64(len(s.stripes))]
}

// Put stores v at (row, col), replacing any existing value. Keys that
// would corrupt the line-oriented persistence formats (tab, newline,
// carriage return) are refused with a BadKeyError, and string values
// holding a newline or carriage return with a BadValueError, before
// any mutation.
func (s *Store) Put(row, col string, v assoc.Value) error {
	c := Cell{Row: row, Col: col, Val: v}
	if err := c.validate(); err != nil {
		return err
	}
	st := s.stripeFor(row)
	st.mu.Lock()
	st.put(st.open(row), col, v)
	st.mu.Unlock()
	s.version.Add(1)
	return nil
}

// open returns the row under key, entering an empty one in the map and
// the ordered index when the stripe has none; the caller fills it.
func (st *stripe) open(key string) *row {
	r := st.rows[key]
	if r == nil {
		r = &row{key: key}
		st.rows[key] = r
		st.index.Put(key)
	}
	return r
}

// column returns the member list of the named column, starting an
// empty one when the stripe has none; the caller enters a row.
func (st *stripe) column(name string) *column {
	c := st.cols[name]
	if c == nil {
		c = &column{name: name}
		st.cols[name] = c
	}
	return c
}

// enter appends r to the member list and returns its position.
func (c *column) enter(r *row) int {
	c.rows = append(c.rows, r)
	return len(c.rows) - 1
}

// leave takes the member at pos out of col's list by moving the last
// member into its place.
func (st *stripe) leave(col string, pos int) {
	c := st.cols[col]
	last := len(c.rows) - 1
	if pos != last {
		moved := c.rows[last]
		c.rows[pos] = moved
		moved.cells.Get(col).Val.pos = pos
	}
	c.rows[last] = nil
	c.rows = c.rows[:last]
	if last == 0 {
		delete(st.cols, col)
	}
}

// put stores v under col in r, a row of this stripe.
func (st *stripe) put(r *row, col string, v assoc.Value) {
	c := st.column(col)
	e, added := r.cells.Put(c.name)
	if added {
		e.Val.pos = c.enter(r)
		st.nnz++
	}
	e.Val.val = v
}

// putRun stores cells, all of row key. A run that opens the row and
// arrives in column order — what a published table is made of —
// becomes the row's run as it stands, in one allocation of exactly its
// size; anything else goes in cell by cell, the last of a repeated
// column winning.
func (st *stripe) putRun(key string, cells []Cell) {
	r := st.open(key)
	if r.cells.NumBlocks() > 0 || !ascendingCols(cells) {
		for i := range cells {
			st.put(r, cells[i].Col, cells[i].Val)
		}
		return
	}
	run := make([]runs.Entry[cell], len(cells))
	for i := range cells {
		c := st.column(cells[i].Col)
		run[i] = runs.Entry[cell]{Key: c.name, Val: cell{val: cells[i].Val, pos: c.enter(r)}}
	}
	r.cells = runs.Of(run)
	st.nnz += len(cells)
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

// PutBatch stores every cell. Table iterations arrive row-major, so the
// batch is applied as runs of consecutive same-row cells: one stripe
// hash, one row lookup per run, and the stripe lock held across runs of
// one stripe. Validation is all-or-nothing: a single bad key or value
// rejects the whole batch with a BadKeyError or BadValueError before
// anything is applied.
func (s *Store) PutBatch(cells []Cell) error {
	for i := range cells {
		if err := cells[i].validate(); err != nil {
			return err
		}
	}
	s.putCells(cells)
	return nil
}

// putCells is PutBatch for cells already validated (by PutBatch, or by
// parseMutation before the WAL saw them).
func (s *Store) putCells(cells []Cell) {
	var cur *stripe
	for i := 0; i < len(cells); {
		key := cells[i].Row
		j := i + 1
		for j < len(cells) && cells[j].Row == key {
			j++
		}
		if st := s.stripeFor(key); st != cur {
			if cur != nil {
				cur.mu.Unlock()
			}
			st.mu.Lock()
			cur = st
		}
		cur.putRun(key, cells[i:j])
		i = j
	}
	if cur != nil {
		cur.mu.Unlock()
		s.version.Add(uint64(len(cells)))
	}
}

// Get returns the value at (row, col).
func (s *Store) Get(row, col string) (assoc.Value, bool) {
	st := s.stripeFor(row)
	st.mu.RLock()
	defer st.mu.RUnlock()
	if r := st.rows[row]; r != nil {
		if e := r.cells.Get(col); e != nil {
			return e.Val.val, true
		}
	}
	return assoc.Value{}, false
}

// Delete removes the cell if present and reports whether it existed.
func (s *Store) Delete(row, col string) bool {
	st := s.stripeFor(row)
	st.mu.Lock()
	ok := st.del(row, col)
	st.mu.Unlock()
	if ok {
		s.version.Add(1)
	}
	return ok
}

func (st *stripe) del(key, col string) bool {
	r := st.rows[key]
	if r == nil {
		return false
	}
	c, ok := r.cells.Delete(col)
	if !ok {
		return false
	}
	st.leave(col, c.pos)
	if r.cells.NumBlocks() == 0 {
		delete(st.rows, key)
		st.index.Delete(key)
	}
	st.nnz--
	return true
}

// DeleteBatch removes every addressed cell, with the same run-wise
// stripe locking as PutBatch, and returns how many existed.
func (s *Store) DeleteBatch(keys []CellKey) int {
	if len(keys) == 0 {
		return 0
	}
	deleted := 0
	var cur *stripe
	for _, k := range keys {
		st := s.stripeFor(k.Row)
		if st != cur {
			if cur != nil {
				cur.mu.Unlock()
			}
			st.mu.Lock()
			cur = st
		}
		if cur.del(k.Row, k.Col) {
			deleted++
		}
	}
	cur.mu.Unlock()
	if deleted > 0 {
		s.version.Add(uint64(deleted))
	}
	return deleted
}

// NNZ returns the number of stored cells.
func (s *Store) NNZ() int {
	n := 0
	for _, st := range s.stripes {
		st.mu.RLock()
		n += st.nnz
		st.mu.RUnlock()
	}
	return n
}

// Row returns a copy of one row (nil if absent).
func (s *Store) Row(row string) map[string]assoc.Value {
	st := s.stripeFor(row)
	st.mu.RLock()
	defer st.mu.RUnlock()
	r := st.rows[row]
	if r == nil {
		return nil
	}
	out := make(map[string]assoc.Value, r.cells.Len())
	for e := range r.cells.All() {
		out[e.Key] = e.Val.val
	}
	return out
}

// Col returns a copy of one column, merged across the per-stripe
// member lists (nil if absent everywhere). Each member row yields its
// value by a search of its own run: O(result x log row width).
func (s *Store) Col(col string) map[string]assoc.Value {
	var out map[string]assoc.Value
	for _, st := range s.stripes {
		st.mu.RLock()
		if c := st.cols[col]; c != nil {
			if out == nil {
				out = make(map[string]assoc.Value, len(c.rows))
			}
			for _, r := range c.rows {
				out[r.key] = r.cells.Get(col).Val.val
			}
		}
		st.mu.RUnlock()
	}
	return out
}

// RowRange returns the sorted row keys in [start, end). An empty end
// means unbounded.
func (s *Store) RowRange(start, end string) []string {
	rows, _ := s.ScanRows(start, end, 0, "")
	return rows
}

// ScanRows is the paged form of RowRange: it returns up to limit sorted
// row keys r with r >= start, r < end (empty end = unbounded), and
// r > cursor when cursor is non-empty. A limit <= 0 means unlimited.
// The second result reports whether more rows remain past the page —
// pass the last returned key back as the cursor to continue. Each
// stripe seeks its ordered index to the lower bound and yields at most
// limit+1 keys, and the runs are merged: O(stripes * (log rows + limit))
// per page, independent of how many rows the store holds elsewhere.
func (s *Store) ScanRows(start, end string, limit int, cursor string) ([]string, bool) {
	lo, strict := start, false
	if cursor != "" && cursor >= start {
		lo, strict = cursor, true
	}
	take := -1
	if limit > 0 {
		take = limit + 1 // one past the page proves there is more
	}
	scratch := keyPool.Get().(*[]string)
	keys := (*scratch)[:0]
	bounds := make([]int, 1, len(s.stripes)+1)
	for _, st := range s.stripes {
		st.mu.RLock()
		keys = st.index.AppendKeys(keys, lo, strict, end, take)
		st.mu.RUnlock()
		bounds = append(bounds, len(keys))
	}
	more := limit > 0 && len(keys) > limit
	if !more {
		limit = len(keys)
	}
	out := mergeRuns(keys, bounds, limit)
	clear(keys) // a pooled buffer must not pin rows deleted since
	*scratch = keys
	keyPool.Put(scratch)
	return out, more
}

// keyPool recycles ScanRows' per-stripe runs: up to limit+1 keys from
// every stripe, of which only the merged page outlives the call.
var keyPool = sync.Pool{New: func() any { return new([]string) }}

// mergeRuns merges the sorted runs keys[bounds[i]:bounds[i+1]] and
// returns the n smallest keys in order, in a slice of their own. Rows
// live in exactly one stripe, so the runs share no key.
func mergeRuns(keys []string, bounds []int, n int) []string {
	heads := append([]int(nil), bounds[:len(bounds)-1]...)
	out := make([]string, 0, n)
	for len(out) < n {
		best := -1
		for i, h := range heads {
			if h < bounds[i+1] && (best < 0 || keys[h] < keys[heads[best]]) {
				best = i
			}
		}
		out = append(out, keys[heads[best]])
		heads[best]++
	}
	return out
}

// appendCells returns every cell of up to limit rows of the paged row
// scan defined by ScanRows, sorted by (row, col), plus the more flag.
// It is the bulk-export query: one round trip per page instead of one
// ROW query per key, at O(page selection + cells returned). A row
// deleted between the page selection and its cell read simply drops
// from the page (each row's cells are read in place under its stripe's
// read lock, so atomically); if every selected row vanished that way,
// the scan advances past them rather than returning a spurious
// end-of-scan. The page's cells are appended to dst, so a caller
// serving page after page reuses one buffer instead of allocating a
// page-sized one each time.
func (s *Store) appendCells(dst []Cell, start, end string, limit int, cursor string) ([]Cell, bool) {
	base := len(dst)
	for {
		rows, more := s.ScanRows(start, end, limit, cursor)
		for _, key := range rows {
			st := s.stripeFor(key)
			st.mu.RLock()
			if r := st.rows[key]; r != nil {
				if cap(dst) == 0 {
					// A table's rows are near-uniform: size the page by its first row.
					dst = make([]Cell, 0, len(rows)*r.cells.Len())
				}
				for e := range r.cells.All() {
					dst = append(dst, Cell{Row: key, Col: e.Key, Val: e.Val.val})
				}
			}
			st.mu.RUnlock()
		}
		if len(dst) > base || !more {
			return dst, more
		}
		cursor = rows[len(rows)-1] // whole page deleted concurrently: skip it
	}
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

// TopRowsByDegree returns up to k (row, degree) pairs with the largest
// degrees, ties broken lexicographically — the degree-table query D4M
// deployments use to find the heaviest sources without scanning values.
// Rows live wholly inside one stripe, so the per-stripe degree tables
// are concatenated, not summed.
func (s *Store) TopRowsByDegree(k int) []RowDegree {
	var out []RowDegree
	for _, st := range s.stripes {
		st.mu.RLock()
		for key, r := range st.rows {
			out = append(out, RowDegree{Row: key, Degree: r.cells.Len()})
		}
		st.mu.RUnlock()
	}
	slices.SortFunc(out, func(a, b RowDegree) int {
		if a.Degree != b.Degree {
			return b.Degree - a.Degree
		}
		return strings.Compare(a.Row, b.Row)
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
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

// rlockAll read-locks every stripe in index order, giving callers an
// atomic snapshot of the whole table; runlockAll releases them.
func (s *Store) rlockAll() {
	for _, st := range s.stripes {
		st.mu.RLock()
	}
}

func (s *Store) runlockAll() {
	for _, st := range s.stripes {
		st.mu.RUnlock()
	}
}

// ToAssoc exports the full table as an associative array. The export
// is an atomic snapshot: all stripes are held read-locked for its
// duration, so no concurrent mutation can tear it.
func (s *Store) ToAssoc() *assoc.Assoc {
	s.rlockAll()
	defer s.runlockAll()
	out := assoc.New()
	for _, st := range s.stripes {
		for key, r := range st.rows {
			run := make([]assoc.Cell, 0, r.cells.Len())
			for e := range r.cells.All() {
				run = append(run, assoc.Cell{Key: e.Key, Val: e.Val.val})
			}
			out.SetRow(key, run) // ascending by construction
		}
	}
	return out
}

// Version returns the mutation counter, for cache invalidation.
func (s *Store) Version() uint64 { return s.version.Load() }

// WriteLog appends the entire table to w as replayable PUT records (the
// persistence format: one "P<TAB>row<TAB>col<TAB>type<TAB>value" line
// per cell). Like ToAssoc, the log is an atomic snapshot: every stripe
// stays read-locked until the last record is buffered, so the log
// always corresponds to a state the store actually held.
func (s *Store) WriteLog(w io.Writer) error {
	s.rlockAll()
	defer s.runlockAll()
	bw := bufio.NewWriter(w)
	var keys []string
	bounds := make([]int, 1, len(s.stripes)+1)
	for _, st := range s.stripes {
		keys = st.index.AppendKeys(keys, "", false, "", -1)
		bounds = append(bounds, len(keys))
	}
	for _, row := range mergeRuns(keys, bounds, len(keys)) {
		for e := range s.stripeFor(row).rows[row].cells.All() {
			line := appendCell(append(bw.AvailableBuffer(), 'P', '\t'), row, e.Key, e.Val.val)
			if _, err := bw.Write(append(line, '\n')); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReplayLog applies PUT records produced by WriteLog (or by a server
// session log) to the store.
func (s *Store) ReplayLog(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	line := 0
	batch := make([]Cell, 0, 1024)
	for sc.Scan() {
		line++
		text := sc.Text()
		if text == "" {
			continue
		}
		parts := strings.SplitN(text, "\t", 5)
		if len(parts) != 5 || parts[0] != "P" {
			return fmt.Errorf("tripled: log line %d malformed", line)
		}
		v, err := parseValue(parts[3], parts[4])
		if err != nil {
			return fmt.Errorf("tripled: log line %d: %w", line, err)
		}
		batch = append(batch, Cell{Row: parts[1], Col: parts[2], Val: v})
		if len(batch) == cap(batch) {
			if err := s.PutBatch(batch); err != nil {
				return fmt.Errorf("tripled: log line <= %d: %w", line, err)
			}
			batch = batch[:0]
		}
	}
	if err := s.PutBatch(batch); err != nil {
		return fmt.Errorf("tripled: log line <= %d: %w", line, err)
	}
	return sc.Err()
}
