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

// verifyStoreInvariants cross-checks every stripe's redundant
// structures: the row index (keys strictly ascending, so each row once;
// every entry holding a row of that very key, which hashes to this
// stripe), each row's run (columns strictly ascending, never empty), and
// nnz vs cell count (the degree table is derived from run lengths, so
// its correctness rides on the same checks).
// The fuzz, soak, differential and crash tests call it to prove no
// input sequence can corrupt the store.
func verifyStoreInvariants(t *testing.T, s *Store) {
	t.Helper()
	total := 0
	for i, st := range s.stripes {
		st.mu.RLock()
		nnz := 0
		prevKey, firstKey := "", true
		for entry := range st.index.All() {
			key, r := entry.Key, entry.Val
			if !firstKey && key <= prevKey {
				t.Errorf("stripe %d index not strictly ascending: %q after %q", i, key, prevKey)
			}
			prevKey, firstKey = key, false
			if s.stripeFor(key) != st {
				t.Errorf("stripe %d holds row %q that hashes elsewhere", i, key)
			}
			if r == nil {
				t.Errorf("stripe %d indexes %q with no row", i, key)
				continue
			}
			if r.key != key {
				t.Errorf("stripe %d files row %q under %q", i, r.key, key)
			}
			if r.cells.NumBlocks() == 0 {
				t.Errorf("stripe %d keeps empty row %q", i, key)
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
		if nnz != st.nnz {
			t.Errorf("stripe %d nnz = %d, recount %d", i, st.nnz, nnz)
		}
		total += nnz
		st.mu.RUnlock()
	}
	if got := s.NNZ(); got != total {
		t.Errorf("NNZ = %d, recount %d", got, total)
	}
}
