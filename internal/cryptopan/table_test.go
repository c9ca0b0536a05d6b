package cryptopan

import (
	"math/rand"
	"testing"

	"repro/internal/ipaddr"
)

// TestTableMatchesReferenceWalk pins the table-accelerated Anonymize to
// the bit-exact reference walk: any divergence would silently re-key the
// whole study.
func TestTableMatchesReferenceWalk(t *testing.T) {
	a, _ := newAnonymizer(testKey())
	rng := rand.New(rand.NewSource(11))
	check := func(addr ipaddr.Addr) {
		t.Helper()
		if got, want := a.Anonymize(addr), a.anonymizeRef(addr); got != want {
			t.Fatalf("Anonymize(%v) = %v, reference walk = %v", addr, got, want)
		}
	}
	// Structured corners: all-zero, all-one, single-bit, byte boundaries.
	for i := 0; i < 32; i++ {
		check(ipaddr.Addr(1 << uint(i)))
		check(ipaddr.Addr(^uint32(0) << uint(i)))
	}
	check(ipaddr.Addr(0))
	check(ipaddr.Addr(^uint32(0)))
	for i := 0; i < 5000; i++ {
		check(ipaddr.Addr(rng.Uint32()))
	}
	// And under a second key, since the table depends on the key.
	k2 := testKey()
	k2[5] ^= 0xA5
	b, _ := newAnonymizer(k2)
	for i := 0; i < 1000; i++ {
		addr := ipaddr.Addr(rng.Uint32())
		if got, want := b.Anonymize(addr), b.anonymizeRef(addr); got != want {
			t.Fatalf("key2 Anonymize(%v) = %v, reference = %v", addr, got, want)
		}
	}
}

// anonymizeRef is the unoptimized reference walk — one AES block per
// bit, no table. It is the differential-test oracle for every
// table-accelerated walk.
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
