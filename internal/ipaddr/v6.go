package ipaddr

// v6.go carries the IPv6-source adapter. The observatory pipeline is
// built around 32-bit matrix indices (the paper's 2^32 x 2^32
// hypersparse traffic matrices), so IPv6 origins do not widen the hot
// path: they are embedded deterministically into the class E quarter of
// the IPv4 index space (240.0.0.0/4), which no routable IPv4 source can
// occupy — randomPublicAddr and real darkspace traffic never produce
// class E sources, so embedded and native sources cannot collide by
// construction. The embedding is a keyed hash of the full 128 bits:
// stable for a given address, uniform over the /4, and one-way (the
// D4M boundary keeps the Addr6 alongside when the original form is
// needed, exactly as CryptoPAN anonymization keeps its reverse table).

import (
	"strconv"
	"strings"
)

// Addr6 is an IPv6 address in network byte order.
type Addr6 [16]byte

// String returns the canonical RFC 5952 text form: lowercase hex
// groups, leading zeros dropped, the longest run of two or more zero
// groups compressed to "::".
func (a Addr6) String() string {
	var groups [8]uint16
	for i := range groups {
		groups[i] = uint16(a[2*i])<<8 | uint16(a[2*i+1])
	}
	// Longest zero run of length >= 2, leftmost on ties.
	best, bestLen := -1, 1
	for i := 0; i < 8; {
		if groups[i] != 0 {
			i++
			continue
		}
		j := i
		for j < 8 && groups[j] == 0 {
			j++
		}
		if j-i > bestLen {
			best, bestLen = i, j-i
		}
		i = j
	}
	var b strings.Builder
	for i := 0; i < 8; i++ {
		if i == best {
			b.WriteString("::")
			i += bestLen - 1
			continue
		}
		if i > 0 && !(best >= 0 && i == best+bestLen) {
			b.WriteByte(':')
		}
		b.WriteString(strconv.FormatUint(uint64(groups[i]), 16))
	}
	return b.String()
}

// V6EmbedPrefix is the slice of the IPv4 index space reserved for
// embedded IPv6 sources: class E, which carries no routable IPv4
// traffic and which the synthetic population generator never samples.
var V6EmbedPrefix = Prefix{Base: 0xF0000000, Bits: 4}

// EmbedV6 maps an IPv6 address to its 32-bit matrix index inside
// V6EmbedPrefix: a splitmix-style hash of all 128 bits folded to the 28
// free bits. Deterministic and uniform; collisions between distinct
// IPv6 addresses are possible (birthday-bounded at ~2^14 sources) and
// are handled by the caller the same way duplicate IPv4 draws are.
func EmbedV6(a Addr6) Addr {
	var x uint64
	for i := 0; i < 16; i += 8 {
		w := uint64(a[i])<<56 | uint64(a[i+1])<<48 | uint64(a[i+2])<<40 | uint64(a[i+3])<<32 |
			uint64(a[i+4])<<24 | uint64(a[i+5])<<16 | uint64(a[i+6])<<8 | uint64(a[i+7])
		x ^= w * 0x9E3779B97F4A7C15
		x ^= x >> 30
		x *= 0xBF58476D1CE4E5B9
		x ^= x >> 27
	}
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return V6EmbedPrefix.Nth(x & (1<<28 - 1))
}
