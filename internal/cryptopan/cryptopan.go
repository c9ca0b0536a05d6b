// Package cryptopan implements prefix-preserving IP address anonymization
// following the Crypto-PAn construction of Fan, Xu, Ammar and Moon
// ("Prefix-preserving IP address anonymization", Computer Networks 2004),
// the scheme the CAIDA Telescope uses before archiving traffic matrices.
//
// Prefix preservation means that for any two addresses a and b, the
// anonymized addresses share exactly as many leading bits as a and b do.
// The traffic-matrix quantities of the paper's Table II are invariant
// under this (it is a permutation of the address space), which the test
// suite verifies by property.
//
// One mapping, four ways to pay for it, all bit-identical to the
// one-AES-block-per-bit reference walk the tests keep as their oracle.
// Anonymizer.Anonymize serves levels 0-15 from a 2^16-entry flip table
// and pays 16 AES blocks. Cached (and its per-goroutine L1) memoizes
// addresses that repeat — a telescope's sources — and walks a slab's
// misses sorted, so neighbours share the levels of their common prefix.
// Anonymizer.Within(prefix) is for addresses inside one known prefix —
// a telescope's destinations: a second flip table indexed by the 16
// bits after the prefix leaves 7 blocks for a /8, in slab order, with
// nothing sorted or remembered. Deanonymize[Batch] is the keyed
// inverse, the sorted walk run backwards.
//
// Every walk pays its AES blocks through one kernel (kernel.go): a
// list of level words in, their flip bits out. On amd64 with AES-NI it
// runs eight blocks at a time, about 3 ns a block on a 2 GHz Xeon
// against 26 ns for a crypto/aes call per block, which is what it runs
// on elsewhere; the reference walk calls crypto/aes directly.
package cryptopan

import (
	"crypto/aes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/ipaddr"
)

// KeySize is the required key length in bytes: 16 bytes of AES key
// followed by 16 bytes of pad-generation secret.
const KeySize = 32

// Anonymizer applies the Crypto-PAn transform. It is safe for concurrent
// use once constructed; the AES block cipher is stateless.
type Anonymizer struct {
	cipher interface {
		Encrypt(dst, src []byte)
	}
	pad    [16]byte
	kernel flipKernel // every walk's AES blocks (flipBits)

	// top16 caches the flip bits of the first 16 walk levels, which
	// depend only on the top 16 address bits: entry t holds flip bit for
	// level i at bit position 15-i. Building it costs 2^16 - 1 AES block
	// encryptions (one per distinct prefix of length 0..15, well under a
	// millisecond once per key on the AES-NI kernel) and halves the
	// per-address AES cost forever after, which is what the telescope's
	// per-window cold-start is bound by. Built lazily on first use.
	//
	// inv16 is the same table indexed from the other side: entry u holds
	// the flip bits of the 16-bit prefix that anonymizes to u (the top 16
	// bits are themselves a bijection), so Deanonymize recovers the
	// original top half as u ^ inv16[u] without a search.
	top16Once sync.Once
	top16     []uint16
	inv16     []uint16

	// within holds one second-level flip table per prefix asked for
	// (see Within): every telescope sharing this key and monitoring the
	// same darkspace shares the one table.
	withinMu sync.Mutex
	within   map[ipaddr.Prefix]*PrefixWalker
}

// newAnonymizer creates an Anonymizer from a 32-byte key. The first 16 bytes key
// the AES cipher; the last 16 bytes are encrypted once to form the
// canonical padding block, as in the reference implementation.
func newAnonymizer(key []byte) (*Anonymizer, error) {
	if len(key) != KeySize {
		return nil, fmt.Errorf("cryptopan: key must be %d bytes, got %d", KeySize, len(key))
	}
	c, err := aes.NewCipher(key[:16])
	if err != nil {
		return nil, err
	}
	a := &Anonymizer{cipher: c, within: make(map[ipaddr.Prefix]*PrefixWalker)}
	c.Encrypt(a.pad[:], key[16:32])
	a.kernel = newFlipKernel(key[:16], &a.pad)
	return a, nil
}

// NewFromPassphrase derives a key from an arbitrary passphrase via
// SHA-256 and constructs an Anonymizer. Convenient for tools and tests.
func NewFromPassphrase(phrase string) *Anonymizer {
	sum := sha256.Sum256([]byte(phrase))
	a, err := newAnonymizer(sum[:])
	if err != nil {
		// Cannot happen: the key is exactly 32 bytes.
		panic(err)
	}
	return a
}

// walkBuf is the scratch of one anonymization walk: the level words
// and flip bits of one flipBits call, and crypto/aes's input and output
// blocks. Encrypt is an interface call, so stack-allocated blocks would
// escape and cost one heap allocation per call, and a stack array of
// words would be zeroed on every call; pooling them makes the walk
// allocation-free.
type walkBuf struct {
	words      [walkWords]uint32
	bits       [walkWords]uint8
	block, out [16]byte
}

// walkWords is how many level words one flipBits call takes at most:
// 64 addresses' 16-level walks.
const walkWords = 1024

var walkPool = sync.Pool{New: func() interface{} { return new(walkBuf) }}

// Anonymize maps an address to its prefix-preserving anonymized form.
//
// For each bit position i (most significant first), the output bit is the
// input bit XORed with a pseudorandom function of the first i input bits.
// This makes the mapping a bijection on the address space in which common
// prefixes are preserved exactly.
//
// The mapping is bit-identical to the one-AES-block-per-bit reference
// walk (the differential tests keep it as their oracle); the first 16
// levels are served from the precomputed top16 table and only levels
// 16..31 pay an AES block each.
func (a *Anonymizer) Anonymize(addr ipaddr.Addr) ipaddr.Addr {
	a.top16Once.Do(a.buildTop16)
	v := uint32(addr)
	b := walkPool.Get().(*walkBuf)
	flips := a.walkTail(v, 16, binary.BigEndian.Uint32(a.pad[:4]), b)
	walkPool.Put(b)
	return ipaddr.Addr(v ^ (uint32(a.top16[v>>16])<<16 | flips))
}

// Deanonymize is the inverse of Anonymize, computed from the key alone:
// output bit i is input bit i XORed with the same pseudorandom function
// of the first i original bits, and those are exactly the bits the walk
// has already recovered. It is total — every address is the image of
// exactly one original — and costs what Anonymize does.
func (a *Anonymizer) Deanonymize(addr ipaddr.Addr) ipaddr.Addr {
	b := walkPool.Get().(*walkBuf)
	in, out := [1]uint32{uint32(addr)}, [1]uint32{}
	a.walkSorted(in[:], out[:], b, true)
	walkPool.Put(b)
	return ipaddr.Addr(out[0])
}

// walkTail pays for walk levels from..31 of the original address v, one
// AES block each, and returns their flip bits where the walk result
// keeps them (level i at bit 31-i). No level's AES input depends on
// another level's output, so the blocks go to flipBits in one call.
func (a *Anonymizer) walkTail(v uint32, from int, padTop uint32, b *walkBuf) uint32 {
	n := levelWords(b.words[:], v, from, padTop)
	a.flipBits(b, b.words[:n], b.bits[:n])
	return levelFlips(b.bits[:n], from)
}

// buildTop16 precomputes the flip bits of walk levels 0..15 for every
// possible 16-bit address prefix: level i has 2^i distinct prefix
// inputs, so the whole table costs sum(2^i) = 2^16 - 1 encryptions.
func (a *Anonymizer) buildTop16() {
	t := a.flipTable(0, 0, 16, 0, 15)
	inv := make([]uint16, 1<<16)
	for p, f := range t {
		inv[uint16(p)^f] = f
	}
	a.top16, a.inv16 = t, inv
}
