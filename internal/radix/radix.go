// Package radix is the one LSD (least-significant-digit) radix sort the
// hot paths share: the leaf build's (key, value) pairs, the frozen
// study's address keys and the synthetic stream's packets by time.
// Keys are unsigned; byte-wide counting passes scatter into
// caller-owned scratch, so a sort allocates nothing, compares nothing
// and calls through no interface. A pass whose byte is the same in
// every key is skipped, so keys that share high bits (darkspace
// addresses inside one /8, 16-bit positions) sort in a handful of
// passes. Every pass is stable, so equal keys keep their input order.
package radix

// Key is the set of key widths the sort orders by.
type Key interface {
	~uint32 | ~uint64
}

// SortPairs sorts keys ascending, stably, carrying vals along, using
// kbuf/vbuf as ping-pong scratch. All four slices must have the same
// length. It returns the slices holding the sorted data, which are
// either (keys, vals) or (kbuf, vbuf) depending on the number of passes
// performed.
func SortPairs[K Key, V any](keys []K, vals []V, kbuf []K, vbuf []V) ([]K, []V) {
	n := len(keys)
	if n < 2 {
		return keys, vals
	}
	// One prepass finds the bytes that actually vary; constant bytes
	// would produce a single bucket and can be skipped outright.
	orAll, andAll := keys[0], keys[0]
	for _, k := range keys[1:] {
		orAll |= k
		andAll &= k
	}
	varying := orAll &^ andAll

	// Bytes beyond a uint32 key's width shift out to zero and are
	// skipped by the varying mask, so one 64-bit loop serves both widths.
	var counts [256]int
	src, dst := keys, kbuf
	vsrc, vdst := vals, vbuf
	for shift := 0; shift < 64; shift += 8 {
		if (varying>>shift)&0xFF == 0 {
			continue
		}
		for i := range counts {
			counts[i] = 0
		}
		for _, k := range src {
			counts[uint8(k>>shift)]++
		}
		pos := 0
		for i, c := range counts {
			counts[i] = pos
			pos += c
		}
		for i, k := range src {
			d := uint8(k >> shift)
			j := counts[d]
			counts[d]++
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
