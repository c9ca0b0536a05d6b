package tripled

// scan_test.go polices the ordered row index behind ScanRows and
// the CELLS pages. The oracle is the scan the index replaced — walk every row
// of every stripe, keep the matches, sort, cut — and a model-based
// property test drives random puts, deletes and scans through the store
// at one stripe and at sixteen, diffing every scan against it.

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/assoc"
)

// scanRowsOracle is the pre-index ScanRows: a full walk of the row
// maps, never the index.
func scanRowsOracle(s *Store, start, end string, limit int, cursor string) ([]string, bool) {
	var out []string
	for _, st := range s.stripes {
		st.mu.RLock()
		for r := range st.rows {
			if r < start || (end != "" && r >= end) || (cursor != "" && r <= cursor) {
				continue
			}
			out = append(out, r)
		}
		st.mu.RUnlock()
	}
	sort.Strings(out)
	if limit > 0 && len(out) > limit {
		return out[:limit], true
	}
	return out, false
}

// scanCellsOracle is the pre-index CELLS page over a quiescent store:
// the oracle's page, each row copied out through Row.
func scanCellsOracle(s *Store, start, end string, limit int, cursor string) ([]Cell, bool) {
	rows, more := scanRowsOracle(s, start, end, limit, cursor)
	var out []Cell
	for _, r := range rows {
		cells := s.Row(r)
		for _, c := range sortedKeys(nil, cells) {
			out = append(out, Cell{Row: r, Col: c, Val: cells[c]})
		}
	}
	return out, more
}

func cellsEqual(a, b []Cell) bool {
	return slices.EqualFunc(a, b, func(x, y Cell) bool {
		return x.Row == y.Row && x.Col == y.Col && valueEqual(x.Val, y.Val)
	})
}

// TestScanMatchesFullScanOracle grows a store past several index-block
// splits and shrinks it back to nothing, scanning between mutations with
// every shape of argument: limit 0, tiny and beyond the matches; cursor
// absent, below start, naming a live row, naming a deleted row, at or
// past end; end empty, above and below start.
func TestScanMatchesFullScanOracle(t *testing.T) {
	for _, stripes := range []int{1, 16} {
		t.Run(fmt.Sprintf("stripes=%d", stripes), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(stripes)))
			s := NewStoreStripes(stripes)
			key := func() string { return fmt.Sprintf("%c/%03d", 'a'+rng.Intn(4), rng.Intn(700)) }
			cols := []string{"packets", "class", "intent"}
			var deleted []string
			bound := func() string { // a scan argument: empty, live or dead row, or a bare prefix
				switch r := rng.Intn(10); {
				case r < 2:
					return ""
				case r < 4 && len(deleted) > 0:
					return deleted[rng.Intn(len(deleted))]
				case r < 5:
					return string(rune('a' + rng.Intn(5)))
				default:
					return key()
				}
			}
			limits := []int{0, -1, 1, 2, 7, 64, 513, 1 << 20}
			check := func() {
				start, end, cursor := bound(), bound(), bound()
				limit := limits[rng.Intn(len(limits))]
				rows, more := s.ScanRows(start, end, limit, cursor)
				wantRows, wantMore := scanRowsOracle(s, start, end, limit, cursor)
				if !slices.Equal(rows, wantRows) || more != wantMore {
					t.Fatalf("ScanRows(%q, %q, %d, %q) = %d rows, more=%v; oracle %d rows, more=%v\n got %v\nwant %v",
						start, end, limit, cursor, len(rows), more, len(wantRows), wantMore, rows, wantRows)
				}
				cells, more := s.appendCells(nil, start, end, limit, cursor)
				wantCells, wantMore := scanCellsOracle(s, start, end, limit, cursor)
				if !cellsEqual(cells, wantCells) || more != wantMore {
					t.Fatalf("appendCells(%q, %q, %d, %q) = %d cells, more=%v; oracle %d cells, more=%v",
						start, end, limit, cursor, len(cells), more, len(wantCells), wantMore)
				}
			}
			// Three phases: put-heavy growth, churn, delete-heavy drain.
			for phase, putShare := range []int{90, 50, 5} {
				for i := 0; i < 4000; i++ {
					row := key()
					if rng.Intn(100) < putShare {
						if err := s.Put(row, cols[rng.Intn(len(cols))], assoc.Num(float64(i))); err != nil {
							t.Fatal(err)
						}
					} else {
						for _, c := range cols {
							s.Delete(row, c)
						}
						deleted = append(deleted, row)
					}
					if i%8 == 0 {
						check()
					}
				}
				verifyStoreInvariants(t, s)
				if t.Failed() {
					t.Fatalf("invariants broken after phase %d", phase)
				}
			}
			// Drain what is left, one page at a time, through the scan itself.
			for {
				rows, more := s.ScanRows("", "", 100, "")
				for _, r := range rows {
					for _, c := range cols {
						s.Delete(r, c)
					}
				}
				check()
				if !more {
					break
				}
			}
			verifyStoreInvariants(t, s)
			if n := s.NNZ(); n != 0 {
				t.Fatalf("drained store holds %d cells", n)
			}
			for i, st := range s.stripes {
				if n := st.index.NumBlocks(); n != 0 {
					t.Errorf("stripe %d keeps %d index blocks after the drain", i, n)
				}
			}
		})
	}
}

// TestPagedScanCoversEveryRowOnce pages a prefix with every page size
// around the block size and checks the concatenation is the unlimited
// scan: no row lost or repeated at a page, block or stripe boundary.
func TestPagedScanCoversEveryRowOnce(t *testing.T) {
	for _, stripes := range []int{1, 16} {
		s := NewStoreStripes(stripes)
		for i := 0; i < 1500; i++ {
			s.Put(fmt.Sprintf("p/%05d", i*7919%1500), "c", assoc.Num(float64(i)))
			s.Put(fmt.Sprintf("q/%05d", i), "c", assoc.Num(float64(i)))
		}
		want, _ := scanRowsOracle(s, "p/", PrefixEnd("p/"), 0, "")
		for _, page := range []int{1, 255, 256, 257, 512, 1499, 1500, 1501} {
			var got []string
			cursor := ""
			for {
				rows, more := s.ScanRows("p/", PrefixEnd("p/"), page, cursor)
				got = append(got, rows...)
				if !more {
					break
				}
				if len(rows) != page {
					t.Fatalf("stripes=%d page=%d: more=true on a %d-row page", stripes, page, len(rows))
				}
				cursor = rows[len(rows)-1]
			}
			if !slices.Equal(got, want) {
				t.Errorf("stripes=%d page=%d: paged scan returned %d rows, want %d", stripes, page, len(got), len(want))
			}
		}
	}
}

// TestScanCellsUnderConcurrentRowDeletes is the -race case: churners
// delete and re-put whole rows (one batch each, so a row is only ever
// whole or absent) while scanners page the table a row or two at a
// time, so pages regularly lose every selected row between selection
// and read. Stable rows interleave with the churned ones: every full
// scan must return each of them exactly once, whole and in order — a
// page emptied under the scanner must advance it, never end the scan —
// and a churned row is either whole or missing.
func TestScanCellsUnderConcurrentRowDeletes(t *testing.T) {
	const rows, scans = 120, 60
	cols := []string{"a", "b", "c"}
	rowCells := func(i int) []Cell {
		out := make([]Cell, len(cols))
		for j, c := range cols {
			out[j] = Cell{Row: fmt.Sprintf("t/%04d", i), Col: c, Val: assoc.Num(float64(i))}
		}
		return out
	}
	s := NewStore()
	var stable []string
	for i := 0; i < rows; i++ {
		s.PutBatch(rowCells(i))
		if i%4 == 3 { // three churned rows, then a stable one
			stable = append(stable, fmt.Sprintf("t/%04d", i))
		}
	}
	stop := make(chan struct{})
	var churners, scanners sync.WaitGroup
	for w := 0; w < 3; w++ {
		churners.Add(1)
		go func(w int) {
			defer churners.Done()
			for i := w; ; i = (i + 3) % rows {
				select {
				case <-stop:
					return
				default:
				}
				if i%4 == 3 {
					continue
				}
				cells := rowCells(i)
				keys := make([]CellKey, len(cells))
				for j, c := range cells {
					keys[j] = CellKey{Row: c.Row, Col: c.Col}
				}
				s.DeleteBatch(keys)
				s.PutBatch(cells)
			}
		}(w)
	}
	for _, limit := range []int{1, 2, 3} {
		scanners.Add(1)
		go func(limit int) {
			defer scanners.Done()
			for n := 0; n < scans; n++ {
				var seen []string
				cursor := ""
				for {
					cells, more := s.appendCells(nil, "t/", PrefixEnd("t/"), limit, cursor)
					for i := 0; i < len(cells); i += len(cols) {
						if i+len(cols) > len(cells) || cells[i].Row != cells[i+len(cols)-1].Row {
							t.Errorf("limit %d: torn row in page after %q", limit, cursor)
							return
						}
						if slices.Contains(stable, cells[i].Row) {
							seen = append(seen, cells[i].Row)
						}
					}
					if len(cells) > 0 {
						cursor = cells[len(cells)-1].Row
					}
					if !more {
						break
					}
					if len(cells) == 0 {
						t.Errorf("limit %d: empty page with more=true after %q", limit, cursor)
						return
					}
				}
				if !slices.Equal(seen, stable) {
					t.Errorf("limit %d: scan %d saw %d of %d stable rows", limit, n, len(seen), len(stable))
					return
				}
			}
		}(limit)
	}
	scanners.Wait()
	close(stop)
	churners.Wait()
	verifyStoreInvariants(t, s)
}
