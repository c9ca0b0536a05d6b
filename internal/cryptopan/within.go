package cryptopan

// within.go is the Crypto-PAn walk for addresses known to lie inside
// one prefix — a telescope's destinations, all of them inside the
// monitored darkspace. A flip bit is a function of an address *prefix*:
// top16 tabulates the levels that read the first 16 bits, and inside a
// fixed prefix the 16 bits that follow it select one more table entry
// holding every level those bits decide. What remains is one AES block
// per level below that, computed in slab order: nothing is sorted,
// deduplicated or remembered.

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

	// table is indexed by the (at most 16) address bits that follow the
	// prefix and holds the flip bits of every walk level from 16 on
	// that those bits decide, where the walk result keeps them (level i
	// at bit 31-i). For a /8 that is levels 16-24: sum(2^8..2^16) =
	// 130 816 AES blocks, the order of buildTop16, and 128 KB. Built on
	// first use, not in Within, so a walker costs nothing until
	// something is anonymized.
	once  sync.Once
	table []uint16
}

// Within returns the walker of (this key, p). Walkers are kept per
// prefix, so every caller sharing the Anonymizer shares one table.
func (a *Anonymizer) Within(p ipaddr.Prefix) *PrefixWalker {
	p.Base &= p.Mask()
	a.withinMu.Lock()
	defer a.withinMu.Unlock()
	w := a.within[p]
	if w == nil {
		w = &PrefixWalker{a: a, base: uint32(p.Base), mask: uint32(p.Mask()), bits: p.Bits}
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
	a, base, mask := w.a, w.base, w.mask
	idxBits := min(16, 32-w.bits)
	tail := min(w.bits+idxBits, 31) + 1 // first walk level the table does not hold
	a.top16Once.Do(a.buildTop16)
	w.once.Do(func() { w.table = a.flipTable(base, w.bits, idxBits, 16, tail-1) })
	top, tab := a.top16, w.table
	shift, idxMask := uint(32-w.bits-idxBits), uint32(1)<<uint(idxBits)-1
	padTop := binary.BigEndian.Uint32(a.pad[:4])
	b := walkPool.Get().(*walkBuf)
	copy(b.block[4:], a.pad[4:])
	for k, addr := range addrs {
		v := uint32(addr)
		var flips uint32 // levels 16..31 flip bits at result bits 15..0
		from := 16
		if v&mask == base {
			flips, from = uint32(tab[v>>shift&idxMask]), tail
		}
		flips |= a.walkTail(v, from, padTop, b)
		addrs[k] = ipaddr.Addr(v ^ (uint32(top[v>>16])<<16 | flips))
	}
	walkPool.Put(b)
}

// flipTable tabulates the flip bits of walk levels lo..hi for every
// address that starts with the bits-long prefix base, indexed by the
// idxBits address bits that follow the prefix; hi-bits <= idxBits, so
// those bits decide every tabulated level. Level i reads the first i
// address bits, max(i-bits, 0) of them index bits, and costs one AES
// block per value of those; its flip bit is stored where the walk
// result keeps it within its 16-bit half, bit (31-i)&15.
func (a *Anonymizer) flipTable(base uint32, bits, idxBits, lo, hi int) []uint16 {
	t := make([]uint16, 1<<uint(idxBits))
	padTop := binary.BigEndian.Uint32(a.pad[:4])
	var block, out [16]byte
	copy(block[4:], a.pad[4:])
	for i := lo; i <= hi; i++ {
		mask := ^uint32(0) << (32 - uint(i)) // i == 0 shifts to zero: all pad
		free := max(i-bits, 0)
		span := 1 << uint(idxBits-free) // table entries sharing level i's input
		bit := uint16(1) << (uint(31-i) & 15)
		for q := 0; q < 1<<uint(free); q++ {
			prefix := base | uint32(q)<<uint(32-bits-free)
			binary.BigEndian.PutUint32(block[:4], prefix&mask|padTop&^mask)
			a.cipher.Encrypt(out[:], block[:])
			if out[0]>>7 == 1 {
				for j := q * span; j < (q+1)*span; j++ {
					t[j] |= bit
				}
			}
		}
	}
	return t
}
