package tripled

import (
	"math"
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

// verifyStoreInvariants cross-checks the store's redundant structures:
// the row index (keys strictly ascending, so each row once; every entry
// holding a row of that very key), each row's run (columns strictly
// ascending, never empty), and nnz vs cell count (the degree table is
// derived from run lengths, so its correctness rides on the same
// checks).
// The fuzz, soak, differential and crash tests call it to prove no
// input sequence can corrupt the store.
func verifyStoreInvariants(t *testing.T, s *Store) {
	t.Helper()
	s.mu.RLock()
	defer s.mu.RUnlock()
	nnz := 0
	prevKey, firstKey := "", true
	for entry := range s.index.All() {
		key, r := entry.Key, entry.Val
		if !firstKey && key <= prevKey {
			t.Errorf("index not strictly ascending: %q after %q", key, prevKey)
		}
		prevKey, firstKey = key, false
		if r == nil {
			t.Errorf("index holds %q with no row", key)
			continue
		}
		if r.key != key {
			t.Errorf("index files row %q under %q", r.key, key)
		}
		if r.cells.NumBlocks() == 0 {
			t.Errorf("store keeps empty row %q", key)
		}
		prev, first := "", true
		for e := range r.cells.All() {
			nnz++
			if !first && e.Key <= prev {
				t.Errorf("row %q run not strictly ascending: %q after %q", key, e.Key, prev)
			}
			prev, first = e.Key, false
		}
		if got := r.cells.Len(); got != r.digest().Count {
			t.Errorf("row %q Len = %d, walk %d", key, got, r.digest().Count)
		}
	}
	if nnz != s.nnz {
		t.Errorf("nnz = %d, recount %d", s.nnz, nnz)
	}
}
