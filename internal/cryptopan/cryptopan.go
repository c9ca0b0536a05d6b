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
package cryptopan

import (
	"crypto/aes"
	"crypto/sha256"
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
	pad [16]byte

	// top16 caches the flip bits of the first 16 walk levels, which
	// depend only on the top 16 address bits: entry t holds flip bit for
	// level i at bit position 15-i. Building it costs 2^16 - 1 AES block
	// encryptions (one per distinct prefix of length 0..15, a couple of
	// milliseconds once per key) and halves the per-address AES cost
	// forever after, which is what the telescope's per-window cold-start
	// is bound by. Built lazily on first use.
	//
	// inv16 is the same table indexed from the other side: entry u holds
	// the flip bits of the 16-bit prefix that anonymizes to u (the top 16
	// bits are themselves a bijection), so Deanonymize recovers the
	// original top half as u ^ inv16[u] without a search.
	top16Once sync.Once
	top16     []uint16
	inv16     []uint16
}

// New creates an Anonymizer from a 32-byte key. The first 16 bytes key
// the AES cipher; the last 16 bytes are encrypted once to form the
// canonical padding block, as in the reference implementation.
func New(key []byte) (*Anonymizer, error) {
	if len(key) != KeySize {
		return nil, fmt.Errorf("cryptopan: key must be %d bytes, got %d", KeySize, len(key))
	}
	c, err := aes.NewCipher(key[:16])
	if err != nil {
		return nil, err
	}
	a := &Anonymizer{cipher: c}
	c.Encrypt(a.pad[:], key[16:32])
	return a, nil
}

// NewFromPassphrase derives a key from an arbitrary passphrase via
// SHA-256 and constructs an Anonymizer. Convenient for tools and tests.
func NewFromPassphrase(phrase string) *Anonymizer {
	sum := sha256.Sum256([]byte(phrase))
	a, err := New(sum[:])
	if err != nil {
		// Cannot happen: the key is exactly 32 bytes.
		panic(err)
	}
	return a
}

// walkBuf holds the AES input/output blocks of one anonymization walk.
// Encrypt is an interface call, so stack-allocated blocks would escape
// and cost one heap allocation per cache miss; pooling them makes the
// walk allocation-free.
type walkBuf struct {
	block, out [16]byte
}

var walkPool = sync.Pool{New: func() interface{} { return new(walkBuf) }}

// Anonymize maps an address to its prefix-preserving anonymized form.
//
// For each bit position i (most significant first), the output bit is the
// input bit XORed with a pseudorandom function of the first i input bits.
// This makes the mapping a bijection on the address space in which common
// prefixes are preserved exactly.
//
// The mapping is bit-identical to the reference walk (anonymizeRef, the
// differential tests assert this); the first 16 levels are served from
// the precomputed top16 table and only levels 16..31 pay an AES block
// each.
func (a *Anonymizer) Anonymize(addr ipaddr.Addr) ipaddr.Addr {
	b := walkPool.Get().(*walkBuf)
	v := a.anonymizeBuf(addr, b)
	walkPool.Put(b)
	return v
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

// anonymizeBuf is Anonymize with a caller-owned walk buffer; holders of
// a single-goroutine buffer (the L1 memo) skip the pool round-trip.
func (a *Anonymizer) anonymizeBuf(addr ipaddr.Addr, b *walkBuf) ipaddr.Addr {
	a.top16Once.Do(a.buildTop16)
	orig := uint32(addr)
	result := uint32(a.top16[orig>>16]) << 16
	padTop := uint32(a.pad[0])<<24 | uint32(a.pad[1])<<16 |
		uint32(a.pad[2])<<8 | uint32(a.pad[3])
	copy(b.block[4:], a.pad[4:])
	for i := 16; i < 32; i++ {
		// First i bits of the original address, rest from the pad.
		mask := ^uint32(0) << (32 - uint(i))
		prefix := orig&mask | padTop&^mask
		b.block[0] = byte(prefix >> 24)
		b.block[1] = byte(prefix >> 16)
		b.block[2] = byte(prefix >> 8)
		b.block[3] = byte(prefix)
		a.cipher.Encrypt(b.out[:], b.block[:])
		// Most significant bit of the cipher output is the flip bit.
		flip := uint32(b.out[0] >> 7)
		result |= flip << (31 - uint(i))
	}
	return ipaddr.Addr(orig ^ result)
}

// buildTop16 precomputes the flip bits of walk levels 0..15 for every
// possible 16-bit address prefix: level i has 2^i distinct prefix
// inputs, so the whole table costs sum(2^i) = 2^16 - 1 encryptions.
func (a *Anonymizer) buildTop16() {
	t := make([]uint16, 1<<16)
	padTop := uint32(a.pad[0])<<24 | uint32(a.pad[1])<<16 |
		uint32(a.pad[2])<<8 | uint32(a.pad[3])
	var block, out [16]byte
	copy(block[4:], a.pad[4:])
	for i := 0; i < 16; i++ {
		mask := ^uint32(0) << (32 - uint(i)) // i == 0 shifts to zero: all pad
		span := 1 << (16 - uint(i))          // table entries sharing an i-bit prefix
		for p := 0; p < 1<<uint(i); p++ {
			prefix := uint32(p)<<(32-uint(i))&mask | padTop&^mask
			block[0] = byte(prefix >> 24)
			block[1] = byte(prefix >> 16)
			block[2] = byte(prefix >> 8)
			block[3] = byte(prefix)
			a.cipher.Encrypt(out[:], block[:])
			if out[0]>>7 == 1 {
				bit := uint16(1) << (15 - uint(i))
				for j := p * span; j < (p+1)*span; j++ {
					t[j] |= bit
				}
			}
		}
	}
	inv := make([]uint16, 1<<16)
	for p, f := range t {
		inv[uint16(p)^f] = f
	}
	a.top16, a.inv16 = t, inv
}

// anonymizeRef is the unoptimized reference walk — one AES block per
// bit, no table. It is retained as the differential-test oracle for the
// table-accelerated Anonymize.
func (a *Anonymizer) anonymizeRef(addr ipaddr.Addr) ipaddr.Addr {
	orig := uint32(addr)
	var result uint32
	var block [16]byte
	var out [16]byte
	for i := 0; i < 32; i++ {
		var prefix uint32
		if i > 0 {
			mask := ^uint32(0) << (32 - uint(i))
			padTop := uint32(a.pad[0])<<24 | uint32(a.pad[1])<<16 |
				uint32(a.pad[2])<<8 | uint32(a.pad[3])
			prefix = orig&mask | padTop&^mask
		} else {
			prefix = uint32(a.pad[0])<<24 | uint32(a.pad[1])<<16 |
				uint32(a.pad[2])<<8 | uint32(a.pad[3])
		}
		block[0] = byte(prefix >> 24)
		block[1] = byte(prefix >> 16)
		block[2] = byte(prefix >> 8)
		block[3] = byte(prefix)
		copy(block[4:], a.pad[4:])
		a.cipher.Encrypt(out[:], block[:])
		flip := uint32(out[0] >> 7)
		result |= flip << (31 - uint(i))
	}
	return ipaddr.Addr(orig ^ result)
}

// AnonymizeAll maps a slice of addresses in place and returns it.
func (a *Anonymizer) AnonymizeAll(addrs []ipaddr.Addr) []ipaddr.Addr {
	for i, v := range addrs {
		addrs[i] = a.Anonymize(v)
	}
	return addrs
}
