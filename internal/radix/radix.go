// Package radix is the one LSD (least-significant-digit) radix sort the
// hot paths share: the leaf build's keys, the merge's wide rows, the
// frozen study's address keys, the column scan's ids and the synthetic
// stream's packets by time. Keys are unsigned; one read pass counts
// every byte of every key, then byte-wide passes scatter into
// caller-owned scratch, so a sort allocates nothing, compares nothing
// and calls through no interface. A byte that is the same in every key
// is skipped, so keys that share high bits (darkspace addresses inside
// one /8, 16-bit positions) sort in a handful of passes. Every pass is
// stable, so equal keys keep their input order.
package radix

// Key is the set of key widths the sort orders by.
type Key interface {
	~uint32 | ~uint64
}

// SortPairs sorts keys ascending, stably, carrying vals along, using
// kbuf/vbuf as ping-pong scratch. All four slices must have the same
// length, below 2^32. It returns the slices holding the sorted data,
// which are either (keys, vals) or (kbuf, vbuf) depending on the number
// of passes performed.
func SortPairs[K Key, V any](keys []K, vals []V, kbuf []K, vbuf []V) ([]K, []V) {
	n := len(keys)
	if n < 2 {
		return keys, vals
	}
	if uint64(n) > 1<<32-1 {
		panic("radix: 2^32 keys or more")
	}
	// One read pass counts every byte of every key.
	if uint64(^K(0)) > 1<<32-1 {
		var counts [8][256]uint32
		for _, k := range keys {
			u := uint64(k)
			counts[0][uint8(u)]++
			counts[1][uint8(u>>8)]++
			counts[2][uint8(u>>16)]++
			counts[3][uint8(u>>24)]++
			counts[4][uint8(u>>32)]++
			counts[5][uint8(u>>40)]++
			counts[6][uint8(u>>48)]++
			counts[7][uint8(u>>56)]++
		}
		return scatter(keys, vals, kbuf, vbuf, counts[:])
	}
	var counts [4][256]uint32
	for _, k := range keys {
		u := uint32(k)
		counts[0][uint8(u)]++
		counts[1][uint8(u>>8)]++
		counts[2][uint8(u>>16)]++
		counts[3][uint8(u>>24)]++
	}
	return scatter(keys, vals, kbuf, vbuf, counts[:])
}

// scatter runs one stable pass per key byte, lowest first, each placing
// the keys by the prefix sums of that byte's counts. A byte whose every
// key falls in one bucket is constant and skipped.
func scatter[K Key, V any](src []K, vsrc []V, dst []K, vdst []V, counts [][256]uint32) ([]K, []V) {
	n := uint32(len(src))
	first := uint64(src[0])
	for b := range counts {
		shift := 8 * b
		c := &counts[b]
		if c[uint8(first>>shift)] == n {
			continue
		}
		pos := uint32(0)
		for i, x := range c {
			c[i] = pos
			pos += x
		}
		for i, k := range src {
			d := uint8(uint64(k) >> shift)
			j := c[d]
			c[d]++
			dst[j] = k
			vdst[j] = vsrc[i]
		}
		src, dst = dst, src
		vsrc, vdst = vdst, vsrc
	}
	return src, vsrc
}

// Sort sorts keys ascending using buf, of the same length, as scratch,
// and returns whichever of the two holds the result.
func Sort[K Key](keys, buf []K) []K {
	none := make([]struct{}, len(keys)) // zero-size: no memory, no allocation
	keys, _ = SortPairs(keys, none, buf, none)
	return keys
}

// Grow returns s resliced to length n, reallocating only when its
// capacity is short (with headroom, so a steady state never is).
// Contents are not kept: it sizes scratch for the next sort.
func Grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, n+n/2)
	}
	return s[:n]
}
