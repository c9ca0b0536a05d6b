package radix

import (
	"math/rand"
	"slices"
	"testing"
)

// TestSortPairsStable checks SortPairs against the standard library's
// stable sort, keys drawn from a narrow range so most keys repeat and
// from the full width so every pass runs.
func TestSortPairsStable(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 3, 100, 5000} {
		for _, width := range []uint64{0, 7, 1 << 20, 1<<64 - 1} {
			keys := make([]uint64, n)
			vals := make([]int, n)
			type pair struct {
				k uint64
				v int
			}
			want := make([]pair, n)
			for i := range keys {
				keys[i] = rng.Uint64()
				if width < 1<<64-1 {
					keys[i] %= width + 1
				}
				vals[i] = i
				want[i] = pair{keys[i], i}
			}
			slices.SortStableFunc(want, func(a, b pair) int {
				switch {
				case a.k < b.k:
					return -1
				case a.k > b.k:
					return 1
				}
				return 0
			})
			gk, gv := SortPairs(keys, vals, make([]uint64, n), make([]int, n))
			for i := range want {
				if gk[i] != want[i].k || gv[i] != want[i].v {
					t.Fatalf("n=%d width=%d: position %d is (%d, %d), want (%d, %d)",
						n, width, i, gk[i], gv[i], want[i].k, want[i].v)
				}
			}
		}
	}
}

// TestSortKeys checks the keys-only form on both key widths.
func TestSortKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	k32 := make([]uint32, 3000)
	for i := range k32 {
		k32[i] = rng.Uint32()
	}
	want32 := slices.Sorted(slices.Values(k32))
	if got := Sort(k32, make([]uint32, len(k32))); !slices.Equal(got, want32) {
		t.Fatal("uint32 keys out of order")
	}
	k64 := make([]uint64, 3000)
	for i := range k64 {
		k64[i] = rng.Uint64() >> (i % 64)
	}
	want64 := slices.Sorted(slices.Values(k64))
	if got := Sort(k64, make([]uint64, len(k64))); !slices.Equal(got, want64) {
		t.Fatal("uint64 keys out of order")
	}
}
