package tripled

import (
	"math"
	"slices"
	"testing"

	"repro/internal/assoc"
)

// valueEqual compares cell values, treating NaN as equal to itself
// (struct equality would report spurious mismatches for NaN numerics,
// which the wire protocol legitimately round-trips).
func valueEqual(a, b assoc.Value) bool {
	if a.Numeric != b.Numeric || a.Str != b.Str {
		return false
	}
	return a.Num == b.Num || (math.IsNaN(a.Num) && math.IsNaN(b.Num))
}

// verifyStoreInvariants cross-checks every stripe's redundant
// structures: row index vs transpose index, nnz vs cell count, empty
// map cleanup (degree tables are derived from these map sizes, so
// their correctness rides on the same checks), row-to-stripe
// placement, and the ordered row index (well-formed blocks holding
// exactly the sorted keys of the row map). The fuzz, soak and crash
// tests call it to prove no input sequence can corrupt the store.
func verifyStoreInvariants(t *testing.T, s *Store) {
	t.Helper()
	total := 0
	for i, st := range s.stripes {
		st.mu.RLock()
		nnz := 0
		for row, r := range st.rows {
			if s.stripeFor(row) != st {
				t.Errorf("stripe %d holds row %q that hashes elsewhere", i, row)
			}
			if len(r) == 0 {
				t.Errorf("stripe %d keeps empty row %q", i, row)
			}
			for col, v := range r {
				nnz++
				if got, ok := st.cols[col][row]; !ok || !valueEqual(got, v) {
					t.Errorf("transpose missing cell (%q,%q)", row, col)
				}
			}
		}
		var indexed []string
		for b, blk := range st.index.blocks {
			if len(blk) == 0 || len(blk) > indexBlock {
				t.Errorf("stripe %d index block %d holds %d keys", i, b, len(blk))
			}
			indexed = append(indexed, blk...)
		}
		if want := sortedKeys(nil, st.rows); !slices.Equal(indexed, want) {
			t.Errorf("stripe %d row index holds %d keys out of step with the %d sorted row keys", i, len(indexed), len(want))
		}
		if nnz != st.nnz {
			t.Errorf("stripe %d nnz = %d, recount %d", i, st.nnz, nnz)
		}
		total += nnz
		colCount := make(map[string]int)
		for col, c := range st.cols {
			if len(c) == 0 {
				t.Errorf("stripe %d keeps empty column %q", i, col)
			}
			colCount[col] = len(c)
			for row, v := range c {
				if got, ok := st.rows[row][col]; !ok || !valueEqual(got, v) {
					t.Errorf("row index missing transposed cell (%q,%q)", row, col)
				}
			}
		}
		for col, n := range colCount {
			if d := len(st.cols[col]); d != n {
				t.Errorf("derived colDeg[%q] = %d, want %d", col, d, n)
			}
		}
		st.mu.RUnlock()
	}
	if got := s.NNZ(); got != total {
		t.Errorf("NNZ = %d, recount %d", got, total)
	}
}
