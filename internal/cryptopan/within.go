package cryptopan

// within.go is the Crypto-PAn walk for addresses known to lie inside
// one prefix — a telescope's destinations, all of them inside the
// monitored darkspace. A flip bit is a function of an address *prefix*:
// top16 tabulates the levels that read the first 16 bits, and inside a
// fixed prefix the 16 bits that follow it select one more table entry
// holding every level those bits decide. What remains is one AES block
// per level below that, paid for a group of addresses at a time in one
// flipBits call: nothing is sorted, deduplicated or remembered.

import (
	"encoding/binary"
	"sync"

	"repro/internal/ipaddr"
)

// PrefixWalker anonymizes addresses under one key, fast inside one
// prefix: obtain it from Anonymizer.Within. An address inside the
// prefix costs two table lookups and one AES block per walk level
// below prefix.Bits+16 (7 for a /8, none for a /15 or longer); an
// address outside it takes the 16-block walk, so the walker is total
// and bit-identical to Anonymize everywhere. Safe for concurrent use.
type PrefixWalker struct {
	a          *Anonymizer
	base, mask uint32 // v&mask == base: v is inside the prefix
	bits       int    // prefix length

	// table is indexed by the idxBits (at most 16) address bits that
	// follow the prefix, v>>shift&idxMask, and holds the flip bits of
	// every walk level from 16 to tail-1, which those bits decide,
	// where the walk result keeps them (level i at bit 31-i). For a /8
	// that is levels 16-24: sum(2^8..2^16) = 130 816 AES blocks, the
	// order of buildTop16, and 128 KB. Built on first use, not in
	// Within, so a walker costs nothing until something is anonymized.
	once          sync.Once
	table         []uint16
	idxBits, tail int
	shift         uint
	idxMask       uint32
}

// Within returns the walker of (this key, p). Walkers are kept per
// prefix, so every caller sharing the Anonymizer shares one table.
func (a *Anonymizer) Within(p ipaddr.Prefix) *PrefixWalker {
	p.Base &= p.Mask()
	a.withinMu.Lock()
	defer a.withinMu.Unlock()
	w := a.within[p]
	if w == nil {
		idxBits := min(16, 32-p.Bits)
		w = &PrefixWalker{
			a: a, base: uint32(p.Base), mask: uint32(p.Mask()), bits: p.Bits,
			idxBits: idxBits,
			tail:    min(p.Bits+idxBits, 31) + 1,
			shift:   uint(32 - p.Bits - idxBits),
			idxMask: uint32(1)<<uint(idxBits) - 1,
		}
		a.within[p] = w
	}
	return w
}

// AnonymizeBatch maps a slab of addresses in place, bit-identical to
// calling Anonymizer.Anonymize on each element, and remembers nothing.
// The slab is walked in the order given and allocates nothing.
func (w *PrefixWalker) AnonymizeBatch(addrs []ipaddr.Addr) {
	if len(addrs) == 0 {
		return
	}
	a := w.a
	a.top16Once.Do(a.buildTop16)
	w.once.Do(func() { w.table = a.flipTable(w.base, w.bits, w.idxBits, 16, w.tail-1) })
	padTop := binary.BigEndian.Uint32(a.pad[:4])
	b := walkPool.Get().(*walkBuf)
	for len(addrs) > 0 {
		n, group := w.groupWords(b, addrs, padTop)
		a.flipBits(b, b.words[:n], b.bits[:n])
		w.finish(addrs[:group], b.bits[:n])
		addrs = addrs[group:]
	}
	walkPool.Put(b)
}

// groupWords writes into b.words the level words of the leading
// addresses whose walks fit, the levels the table does not hold, and
// returns how many words and addresses that is.
func (w *PrefixWalker) groupWords(b *walkBuf, addrs []ipaddr.Addr, padTop uint32) (n, group int) {
	for _, addr := range addrs {
		if n+16 > walkWords {
			break
		}
		v, from := uint32(addr), 16
		if v&w.mask == w.base {
			from = w.tail
		}
		n += levelWords(b.words[n:], v, from, padTop)
		group++
	}
	return n, group
}

// finish maps addrs in place from their table entries and the flip
// bits of groupWords's words.
func (w *PrefixWalker) finish(addrs []ipaddr.Addr, bits []uint8) {
	top, tab := w.a.top16, w.table
	for k, addr := range addrs {
		v := uint32(addr)
		var flips uint32 // levels 16..31 flip bits at result bits 15..0
		from := 16
		if v&w.mask == w.base {
			flips, from = uint32(tab[v>>w.shift&w.idxMask]), w.tail
		}
		flips |= levelFlips(bits, from)
		bits = bits[32-from:]
		addrs[k] = ipaddr.Addr(v ^ (uint32(top[v>>16])<<16 | flips))
	}
}

// flipTable tabulates the flip bits of walk levels lo..hi for every
// address that starts with the bits-long prefix base, indexed by the
// idxBits address bits that follow the prefix; hi-bits <= idxBits, so
// those bits decide every tabulated level. Level i reads the first i
// address bits, free = max(i-bits, 0) of them index bits, and costs one
// AES block per value of those; its flip bit is stored where the walk
// result keeps it within its 16-bit half, bit (31-i)&15.
//
// While level i is added, t[q] is the entry of the free-bit index
// prefix q: its parent's entry, t[q>>(free-prevFree)], plus level i's
// bit. Walking q downwards reads each parent before it is overwritten.
// The last level's entries are then spread over the whole index.
func (a *Anonymizer) flipTable(base uint32, bits, idxBits, lo, hi int) []uint16 {
	t := make([]uint16, 1<<uint(idxBits))
	padTop := binary.BigEndian.Uint32(a.pad[:4])
	b := walkPool.Get().(*walkBuf)
	prevFree := 0
	for i := lo; i <= hi; i++ {
		mask := ^uint32(0) << (32 - uint(i)) // i == 0 shifts to zero: all pad
		free := max(i-bits, 0)
		up := uint(free - prevFree)
		bit := uint16(1) << (uint(31-i) & 15)
		// Level i's word of index prefix q is base's and the pad's word
		// plus q in the free bits after the prefix.
		step := uint32(1) << uint(32-bits-free)
		for end := 1 << uint(free); end > 0; {
			n := min(end, walkWords)
			end -= n
			w := base&mask | padTop&^mask | uint32(end)*step
			for k := range b.words[:n] {
				b.words[k] = w
				w += step
			}
			a.flipBits(b, b.words[:n], b.bits[:n])
			for k := n - 1; k >= 0; k-- {
				q := end + k
				t[q] = t[q>>up] | bit*uint16(b.bits[k])
			}
		}
		prevFree = free
	}
	walkPool.Put(b)
	if spread := uint(idxBits - prevFree); spread > 0 {
		for q := 1<<uint(prevFree) - 1; q >= 0; q-- {
			v, span := t[q], t[q<<spread:(q+1)<<spread]
			for j := range span {
				span[j] = v
			}
		}
	}
	return t
}
