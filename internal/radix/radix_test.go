package radix

import (
	"cmp"
	"encoding/binary"
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

// FuzzSortPairsMatchesStableSort: for uint32 and uint64 keys, SortPairs
// orders (key, input index) pairs exactly as the standard library's
// stable sort does. The first byte's bits pick the key bytes that are
// constant (cleared, then set from a pattern), so some inputs skip
// passes and others vary in every byte.
func FuzzSortPairsMatchesStableSort(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add([]byte{0x5A, 0xFF, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0, 0, 0, 0, 0, 0, 1})
	f.Add([]byte{0xFF, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		var and, or uint64 = 1<<64 - 1, 0
		for b := 0; b < 8; b++ {
			if data[0]>>b&1 == 1 { // byte b is constant: cleared, then set from the pattern
				and &^= 0xFF << (8 * b)
				or |= uint64(data[0]^byte(b)) << (8 * b)
			}
		}
		data = data[1:]
		var k64 []uint64
		for ; len(data) >= 8; data = data[8:] {
			k64 = append(k64, binary.LittleEndian.Uint64(data)&and|or)
		}
		k32 := make([]uint32, len(k64))
		for i, k := range k64 {
			k32[i] = uint32(k) // the low four bytes, masked alike
		}
		checkStable(t, k64)
		checkStable(t, k32)
	})
}

func checkStable[K Key](t *testing.T, keys []K) {
	t.Helper()
	type pair struct {
		k K
		i int
	}
	want := make([]pair, len(keys))
	idx := make([]int, len(keys))
	for i, k := range keys {
		want[i], idx[i] = pair{k, i}, i
	}
	slices.SortStableFunc(want, func(a, b pair) int { return cmp.Compare(a.k, b.k) })
	in := slices.Clone(keys)
	gk, gi := SortPairs(in, idx, make([]K, len(keys)), make([]int, len(keys)))
	for i, w := range want {
		if gk[i] != w.k || gi[i] != w.i {
			t.Fatalf("%d keys: position %d is (%#x, %d), want (%#x, %d)", len(keys), i, gk[i], gi[i], w.k, w.i)
		}
	}
}
