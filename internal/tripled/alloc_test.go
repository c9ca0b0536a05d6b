package tripled

// alloc_test.go gates the store round trip's allocation shape: a BATCH
// body is parsed from the server's scanner bytes and a CELLS page from
// the client's, so what a table costs in allocations grows with its
// rows and pages, never with its cells.

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/assoc"
	"repro/internal/testkit"
)

// TestRoundTripAllocatesPerRowNotPerCell runs one BATCH of rows and one
// CELLS page of the same rows over loopback, month-table shaped: half
// the values strings, half numbers. AllocsPerRun counts the whole
// process, the server's goroutine included, so doubling the columns of
// every row may add only a constant — a buffer growing once more — and
// not an allocation per cell on either side.
func TestRoundTripAllocatesPerRowNotPerCell(t *testing.T) {
	if testkit.RaceEnabled {
		t.Skip("the race detector perturbs allocation counts")
	}
	const rows = 256
	allocs := func(cols int) float64 {
		_, c := serveTest(t)
		cells := make([]Cell, 0, rows*cols)
		for r := 0; r < rows; r++ {
			row := fmt.Sprintf("m/10.0.%03d.%03d", r/16, r%16) // in key order, as a page returns them
			for k := 0; k < cols; k++ {
				v := assoc.Num(float64(r*cols + k))
				if k%2 == 1 {
					v = assoc.Str(fmt.Sprintf("2020-06-%02dT%02d:00:00Z", 1+k, r%24))
				}
				cells = append(cells, Cell{Row: row, Col: fmt.Sprintf("col%02d", k), Val: v})
			}
		}
		var page []Cell
		return testing.AllocsPerRun(20, func() {
			if err := c.PutBatch(cells); err != nil {
				t.Fatal(err)
			}
			var err error
			if page, err = c.appendPage(page[:0], cellsRequest, "m/", "m0", rows, ""); err != nil || !cellsEqual(page, cells) {
				t.Fatalf("page of %d cells, %v; published %d", len(page), err, len(cells))
			}
		})
	}
	six, twelve := allocs(6), allocs(12)
	t.Logf("%d rows: %.0f allocations at 6 columns, %.0f at 12", rows, six, twelve)
	if twelve-six > 32 {
		t.Errorf("%d more cells added %.0f allocations to the round trip: the BATCH or the CELLS path allocates per cell", rows*6, twelve-six)
	}
}

// TestPutBatchAllocatesPerBatchNotPerRow applies one PutBatch of fresh
// month-shaped rows (six columns in order, half the values strings) to
// an empty store: the rows it opens share their storage, so doubling
// them may add only the index's own block growth, not an allocation per
// row. A batch that overwrites cells of rows the store holds, or a Put
// to one of them, allocates nothing at all.
func TestPutBatchAllocatesPerBatchNotPerRow(t *testing.T) {
	if testkit.RaceEnabled {
		t.Skip("the race detector perturbs allocation counts")
	}
	const cols = 6
	month := func(rows int) []Cell {
		cells := make([]Cell, 0, rows*cols)
		for r := 0; r < rows; r++ {
			row := fmt.Sprintf("m/10.%d.%03d.%03d", r/4096, r/16%256, r%16)
			for k := 0; k < cols; k++ {
				v := assoc.Num(float64(r*cols + k))
				if k%2 == 1 {
					v = assoc.Str(fmt.Sprintf("2020-06-%02dT%02d:00:00Z", 1+k, r%24))
				}
				cells = append(cells, Cell{Row: row, Col: fmt.Sprintf("col%02d", k), Val: v})
			}
		}
		return cells
	}
	fresh := func(rows int) float64 {
		cells := month(rows)
		return testing.AllocsPerRun(20, func() {
			s := NewStore()
			if err := s.PutBatch(cells); err != nil || s.NNZ() != len(cells) {
				t.Fatalf("PutBatch of %d cells: %v, %d stored", len(cells), err, s.NNZ())
			}
		})
	}
	small, large := fresh(256), fresh(512)
	t.Logf("fresh rows: %.0f allocations at 256, %.0f at 512", small, large)
	if large-small > 32 {
		t.Errorf("256 more fresh rows added %.0f allocations to one PutBatch: the store allocates per row", large-small)
	}

	s, cells := NewStore(), month(256)
	if err := s.PutBatch(cells); err != nil {
		t.Fatal(err)
	}
	for i := range cells {
		cells[i].Val = assoc.Num(-1)
	}
	if n := testing.AllocsPerRun(20, func() {
		if err := s.PutBatch(cells); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("a PutBatch overwriting %d cells of held rows made %.0f allocations, want 0", len(cells), n)
	}
	if n := testing.AllocsPerRun(20, func() {
		if err := s.Put(cells[7].Row, cells[7].Col, assoc.Num(2)); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("a Put to a held cell made %.0f allocations, want 0", n)
	}
}

// TestDeletePrefixAllocatesPerPageNotPerCell deletes a published prefix
// over many CELLS pages and counts the whole process's allocations
// during DeletePrefix alone. Every page's deletes go out on one
// pipeline whose body grows once, so doubling the columns of every row
// may add only a constant, and a page costs a constant plus the
// server's one string per deleted row run.
func TestDeletePrefixAllocatesPerPageNotPerCell(t *testing.T) {
	if testkit.RaceEnabled {
		t.Skip("the race detector perturbs allocation counts")
	}
	const pageRows, runs = 8, 10
	allocs := func(rows, cols int) float64 {
		_, c := serveTest(t)
		var cells []Cell
		for r := 0; r < rows; r++ {
			row := fmt.Sprintf("m/10.0.%03d.%03d", r/256, r%256)
			for k := 0; k < cols; k++ {
				cells = append(cells, Cell{Row: row, Col: fmt.Sprintf("col%02d", k), Val: assoc.Num(float64(k))})
			}
		}
		var before, after runtime.MemStats
		var total uint64
		for i := 0; i < runs; i++ {
			if err := c.PutBatch(cells); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&before)
			if err := c.DeletePrefix("m/", pageRows); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			total += after.Mallocs - before.Mallocs
		}
		return float64(total) / runs
	}
	base, wide, long := allocs(256, 6), allocs(256, 12), allocs(512, 6)
	pages := 256 / pageRows
	t.Logf("%d pages of %d rows: %.0f allocations at 6 columns, %.0f at 12; %d pages: %.0f",
		pages, pageRows, base, wide, 2*pages, long)
	if wide-base > 8 {
		t.Errorf("%d more cells added %.0f allocations to a %d-page delete: it allocates per cell", 256*6, wide-base, pages)
	}
	if per := (long - base) / float64(pages); per > pageRows+16 {
		t.Errorf("a page of %d rows costs %.1f allocations, want at most %d", pageRows, per, pageRows+16)
	}
}
