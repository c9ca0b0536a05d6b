package tripled

// scan_test.go polices the ordered walk behind the CELLS pages. The
// oracle is the map-of-maps model (oracle_test.go) — walk every row,
// keep the matches, sort, cut — which shares nothing with the store's
// index, and a model-based property test drives random puts, deletes
// and scans through the store, diffing every scan against it.

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"sync"
	"testing"

	"repro/internal/assoc"
)

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
	for _, seed := range []int64{1, 16} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			s, m := NewStore(), newMapStore()
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
				cells, more := s.appendCells(nil, start, end, limit, cursor)
				wantCells, wantMore := m.scanCells(start, end, limit, cursor)
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
						col := cols[rng.Intn(len(cols))]
						if err := s.Put(row, col, assoc.Num(float64(i))); err != nil {
							t.Fatal(err)
						}
						m.put(row, col, assoc.Num(float64(i)))
					} else {
						for _, c := range cols {
							if s.Delete(row, c) != m.del(row, c) {
								t.Fatalf("Delete(%q, %q) disagrees with the model", row, c)
							}
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
				cells, more := s.appendCells(nil, "", "", 100, "")
				for _, c := range cells {
					s.Delete(c.Row, c.Col)
					m.del(c.Row, c.Col)
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
			if n := s.index.NumBlocks(); n != 0 {
				t.Errorf("the index keeps %d blocks after the drain", n)
			}
		})
	}
}

// TestPagedScanCoversEveryRowOnce pages a prefix with every page size
// around the block size and checks the concatenation is the unlimited
// scan: no row lost or repeated at a page or block boundary.
func TestPagedScanCoversEveryRowOnce(t *testing.T) {
	s, m := NewStore(), newMapStore()
	for i := 0; i < 1500; i++ {
		for _, row := range []string{fmt.Sprintf("p/%05d", i*7919%1500), fmt.Sprintf("q/%05d", i)} {
			s.Put(row, "c", assoc.Num(float64(i)))
			m.put(row, "c", assoc.Num(float64(i)))
		}
	}
	want, _ := m.scanRows("p/", prefixEnd("p/"), 0, "")
	for _, page := range []int{1, 255, 256, 257, 512, 1499, 1500, 1501} {
		var got []string
		cursor := ""
		for {
			cells, more := s.appendCells(nil, "p/", prefixEnd("p/"), page, cursor)
			for _, c := range cells { // one cell a row
				got = append(got, c.Row)
			}
			if !more {
				break
			}
			if len(cells) != page {
				t.Fatalf("page=%d: more=true on a %d-row page", page, len(cells))
			}
			cursor = got[len(got)-1]
		}
		if !slices.Equal(got, want) {
			t.Errorf("page=%d: paged scan returned %d rows, want %d", page, len(got), len(want))
		}
	}
}

// TestScanCellsUnderConcurrentRowDeletes is the -race case: churners
// delete and re-put whole rows (one batch each, a new value every time,
// so a row is only ever whole, of one value, or absent) while scanners
// page the table a row or two at a time. A page is a snapshot taken
// under the store's read lock, so under any churn: a row in it is
// whole and of one value; its rows ascend from past the cursor; a page
// that reports more holds exactly limit rows — no row selected and then
// lost — and an empty page therefore ends the scan; and the stable rows
// interleaved with the churned ones turn up exactly once per scan, in
// order.
func TestScanCellsUnderConcurrentRowDeletes(t *testing.T) {
	const rows, scans = 120, 60
	cols := []string{"a", "b", "c"}
	rowCells := func(i, gen int) []Cell {
		out := make([]Cell, len(cols))
		for j, c := range cols {
			out[j] = Cell{Row: fmt.Sprintf("t/%04d", i), Col: c, Val: assoc.Num(float64(gen))}
		}
		return out
	}
	s := NewStore()
	var stable []string
	for i := 0; i < rows; i++ {
		s.PutBatch(rowCells(i, 0))
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
			for i, gen := w, 1; ; i, gen = (i+3)%rows, gen+1 {
				select {
				case <-stop:
					return
				default:
				}
				if i%4 == 3 {
					continue
				}
				cells := rowCells(i, gen)
				keys := make([]CellKey, len(cells))
				for j, c := range cells {
					keys[j] = CellKey{Row: c.Row, Col: c.Col}
				}
				s.mu.Lock()
				s.deleteBatch(keys)
				s.mu.Unlock()
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
					cells, more := s.appendCells(nil, "t/", prefixEnd("t/"), limit, cursor)
					if len(cells)%len(cols) != 0 {
						t.Errorf("limit %d: page of %d cells after %q is not whole rows", limit, len(cells), cursor)
						return
					}
					for i := 0; i < len(cells); i += len(cols) {
						row := cells[i : i+len(cols)]
						if row[0].Row <= cursor {
							t.Errorf("limit %d: row %q does not ascend from %q", limit, row[0].Row, cursor)
							return
						}
						for j, c := range row {
							if c.Row != row[0].Row || c.Col != cols[j] || c.Val != row[0].Val {
								t.Errorf("limit %d: torn row in page after %q: %v", limit, cursor, row)
								return
							}
						}
						cursor = row[0].Row
						if slices.Contains(stable, cursor) {
							seen = append(seen, cursor)
						}
					}
					if !more {
						break
					}
					if len(cells) != limit*len(cols) {
						t.Errorf("limit %d: more=true on a page of %d rows ending at %q", limit, len(cells)/len(cols), cursor)
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

// TestPageAllocsIndependentOfStoreSize is the exact gate on the scan's
// overfetch: one 512-row CELLS page into a reused buffer allocates the
// same number of times with ten times the rows resident — the walk
// keeps one cursor and copies no keys, so nothing it allocates scales
// with the store.
func TestPageAllocsIndependentOfStoreSize(t *testing.T) {
	page := func(rows int) float64 {
		s := NewStore()
		for i := 0; i < rows; i++ {
			for _, c := range []string{"a", "b", "c"} {
				s.Put(fmt.Sprintf("t/%06d", i*7919%rows), c, assoc.Num(float64(i)))
			}
		}
		buf := make([]Cell, 0, 3*512)
		return testing.AllocsPerRun(20, func() {
			cells, more := s.appendCells(buf[:0], "t/", prefixEnd("t/"), 512, "t/000100")
			if len(cells) != 3*512 || !more {
				t.Fatalf("page holds %d cells, more=%v", len(cells), more)
			}
		})
	}
	if small, big := page(2000), page(20000); big != small {
		t.Errorf("a 512-row page allocates %v times over 20000 rows, %v over 2000", big, small)
	}
}

// TestSlabRowsWrittenUnderTheirOwnLocks loads one batch of fresh rows in
// column order, so the rows share one slab, then has a writer per row
// class overwrite, grow, empty and refill its own rows while a reader
// pages through the store. Neighbouring slab rows belong to different
// writers, each write under the store's lock: the race detector sees
// no conflict, and the store ends as the serial model of the same
// writes.
func TestSlabRowsWrittenUnderTheirOwnLocks(t *testing.T) {
	const rows, writers = 256, 8
	s, m := NewStore(), newMapStore()
	var cells []Cell
	for r := 0; r < rows; r++ {
		for c := 0; c < 4; c++ {
			cells = append(cells, Cell{Row: fmt.Sprintf("m/%03d", r), Col: fmt.Sprintf("c%d", 2*c), Val: assoc.Num(float64(r))})
		}
	}
	if err := s.PutBatch(cells); err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		m.put(c.Row, c.Col, c.Val)
	}
	// The writes of writer w, in order: every row r with r % writers == w
	// gets a cell overwritten, one added past its last column and one
	// between two; every third is emptied and one cell put back.
	script := func(w int, put func(r, c string, v assoc.Value), del func(r, c string)) {
		for r := w; r < rows; r += writers {
			row := fmt.Sprintf("m/%03d", r)
			put(row, "c2", assoc.Str(fmt.Sprint("over", r)))
			put(row, "c9", assoc.Num(-1))
			put(row, "c3", assoc.Num(-2))
			if r%3 == 0 {
				for _, c := range []string{"c0", "c2", "c3", "c4", "c6", "c9"} {
					del(row, c)
				}
				put(row, "c1", assoc.Str("back"))
			}
		}
	}
	var wg sync.WaitGroup
	done := make(chan struct{})
	go func() { // a reader holding the store's read lock, page after page
		defer close(done)
		for i := 0; i < 50; i++ {
			var page []Cell
			for cursor, more := "", true; more; {
				if page, more = s.appendCells(page[:0], "m/", "m0", 16, cursor); len(page) > 0 {
					cursor = page[len(page)-1].Row
				}
			}
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			script(w, func(r, c string, v assoc.Value) {
				if err := s.PutBatch([]Cell{{Row: r, Col: c, Val: v}}); err != nil {
					t.Error(err)
				}
			}, func(r, c string) { s.Delete(r, c) })
		}()
	}
	wg.Wait()
	<-done
	for w := 0; w < writers; w++ {
		script(w, m.put, func(r, c string) { m.del(r, c) })
	}
	verifyStoreInvariants(t, s)
	if got, want := storeLog(t, s), m.writeLog(); string(got) != string(want) {
		t.Fatalf("the store's log differs from the model's:\n%s\nmodel:\n%s", got, want)
	}
}

// TestPageSeesWholeBatch: a BATCH of mixed PUT and DEL runs is one
// mutation to a reader. Rows m/0001..m/0200 are loaded first; then batch
// v puts version v into a new row a/v and a new row z/v and deletes the
// one cell of row m/v, its body a PUT, a DEL and a PUT run. A reader
// pages the whole table by CELLS and by KEYS meanwhile, and every page
// must show one version v: as many a/ rows as z/ rows, each holding its
// own version, and the m/ rows past m/v and no others. Run on the store
// (the parsed list the wire, the WAL and replay apply) and over the
// wire.
func TestPageSeesWholeBatch(t *testing.T) {
	const n = 200
	key := func(p byte, v int) string { return fmt.Sprintf("%c/%04d", p, v) }
	batch := func(v int) []string {
		return []string{
			string(appendPut(nil, key('a', v), "ver", assoc.Num(float64(v)))),
			string(appendDel(nil, key('m', v), "ver")),
			string(appendPut(nil, key('z', v), "ver", assoc.Num(float64(v)))),
		}
	}
	// check reports how a page — cells, or row keys alone — falls short
	// of one whole version.
	check := func(page []Cell, keysOnly bool) error {
		count := map[byte]int{}
		firstM := ""
		for _, c := range page {
			p := c.Row[0]
			if count[p]++; p == 'm' && firstM == "" {
				firstM = c.Row
			}
			if v, _ := strconv.Atoi(c.Row[2:]); p != 'm' && !keysOnly && c.Val != assoc.Num(float64(v)) {
				return fmt.Errorf("row %s holds %v", c.Row, c.Val)
			}
		}
		v := count['a']
		if count['z'] != v || count['m'] != n-v || (v < n && firstM != key('m', v+1)) {
			return fmt.Errorf("%d a/ rows, %d z/ rows, %d m/ rows from %q", v, count['z'], count['m'], firstM)
		}
		return nil
	}
	run := func(t *testing.T, s *Store, write func(lines []string) error, cells, keys func() ([]Cell, error)) {
		for v := 1; v <= n; v++ {
			if err := s.Put(key('m', v), "ver", assoc.Num(0)); err != nil {
				t.Fatal(err)
			}
		}
		done := make(chan error, 1)
		go func() {
			for v := 1; v <= n; v++ {
				if err := write(batch(v)); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
		for reading := true; reading; {
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
				reading = false
			default:
			}
			for i, page := range []func() ([]Cell, error){cells, keys} {
				got, err := page()
				if err != nil {
					t.Fatal(err)
				}
				if err := check(got, i == 1); err != nil {
					t.Fatalf("%s page: %v", []string{"CELLS", "KEYS"}[i], err)
				}
			}
		}
	}
	t.Run("store", func(t *testing.T) {
		s := NewStore()
		var ops mutations
		write := func(lines []string) error {
			defer ops.reset()
			for _, l := range lines {
				if err := ops.parse([]byte(l)); err != nil {
					return err
				}
			}
			s.applyRuns(&ops)
			return nil
		}
		cells := func() ([]Cell, error) {
			page, _ := s.appendCells(nil, "", "", 0, "")
			return page, nil
		}
		keys := func() ([]Cell, error) {
			rows, _ := s.appendKeys(nil, "", "", 0, "")
			page := make([]Cell, len(rows))
			for i, r := range rows {
				page[i].Row = r
			}
			return page, nil
		}
		run(t, s, write, cells, keys)
	})
	t.Run("wire", func(t *testing.T) {
		srv, r := serveTest(t)
		w := dialTest(t, srv.Addr())
		write := func(lines []string) error {
			w.send(fmt.Sprintf("BATCH\t%d", len(lines)))
			for _, l := range lines {
				w.send(l)
			}
			resp, err := w.recv()
			if err != nil {
				return err
			}
			return w.expectOK(resp)
		}
		cells := func() ([]Cell, error) { return r.appendPage(nil, cellsRequest, "", "", maxPageRows, "") }
		keys := func() ([]Cell, error) { return r.appendPage(nil, keysRequest, "", "", maxPageRows, "") }
		run(t, srv.store, write, cells, keys)
	})
}
