package cryptopan

import (
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/ipaddr"
)

func testKey() []byte {
	key := make([]byte, KeySize)
	for i := range key {
		key[i] = byte(i*7 + 3)
	}
	return key
}

func TestNewKeyValidation(t *testing.T) {
	if _, err := newAnonymizer(make([]byte, 31)); err == nil {
		t.Error("short key accepted")
	}
	if _, err := newAnonymizer(make([]byte, 33)); err == nil {
		t.Error("long key accepted")
	}
	if _, err := newAnonymizer(testKey()); err != nil {
		t.Errorf("valid key rejected: %v", err)
	}
}

func TestDeterministic(t *testing.T) {
	a1, _ := newAnonymizer(testKey())
	a2, _ := newAnonymizer(testKey())
	for i := 0; i < 100; i++ {
		addr := ipaddr.Addr(uint32(i) * 2654435761)
		if a1.Anonymize(addr) != a2.Anonymize(addr) {
			t.Fatalf("same key produced different mapping for %v", addr)
		}
	}
}

func TestKeyDependence(t *testing.T) {
	a1, _ := newAnonymizer(testKey())
	k2 := testKey()
	k2[0] ^= 0xff
	a2, _ := newAnonymizer(k2)
	same := 0
	for i := 0; i < 256; i++ {
		addr := ipaddr.Addr(uint32(i) * 16777259)
		if a1.Anonymize(addr) == a2.Anonymize(addr) {
			same++
		}
	}
	if same > 8 {
		t.Errorf("different keys agree on %d/256 addresses; mapping appears key-independent", same)
	}
}

// commonPrefixLen is the number of leading bits a and b share.
func commonPrefixLen(a, b ipaddr.Addr) int { return bits.LeadingZeros32(uint32(a ^ b)) }

// TestPrefixPreservation is the defining Crypto-PAn property: anonymized
// addresses share exactly as many leading bits as the originals.
func TestPrefixPreservation(t *testing.T) {
	a, _ := newAnonymizer(testKey())
	f := func(x, y uint32) bool {
		ax := a.Anonymize(ipaddr.Addr(x))
		ay := a.Anonymize(ipaddr.Addr(y))
		return commonPrefixLen(ipaddr.Addr(x), ipaddr.Addr(y)) ==
			commonPrefixLen(ax, ay)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestInjective verifies the transform is a bijection on a sample: no two
// distinct inputs may collide (prefix preservation actually implies this,
// since distinct addresses share <32 bits).
func TestInjective(t *testing.T) {
	a, _ := newAnonymizer(testKey())
	seen := make(map[ipaddr.Addr]ipaddr.Addr)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20000; i++ {
		in := ipaddr.Addr(rng.Uint32())
		out := a.Anonymize(in)
		if prev, ok := seen[out]; ok && prev != in {
			t.Fatalf("collision: %v and %v both map to %v", prev, in, out)
		}
		seen[out] = in
	}
}

func TestSubnetStructurePreserved(t *testing.T) {
	a, _ := newAnonymizer(testKey())
	// All addresses in 44.0.0.0/8 must map into a common anonymized /8.
	base := a.Anonymize(ipaddr.MustParse("44.0.0.1"))
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 500; i++ {
		in := ipaddr.Addr(uint32(ipaddr.MustParse("44.0.0.0")) | rng.Uint32()&0x00ffffff)
		out := a.Anonymize(in)
		if commonPrefixLen(base, out) < 8 {
			t.Fatalf("address %v left its /8: %v vs %v", in, out, base)
		}
	}
}

func TestNewFromPassphrase(t *testing.T) {
	a1 := NewFromPassphrase("telescope")
	a2 := NewFromPassphrase("telescope")
	a3 := NewFromPassphrase("outpost")
	addr := ipaddr.MustParse("192.0.2.55")
	if a1.Anonymize(addr) != a2.Anonymize(addr) {
		t.Error("same passphrase produced different mappings")
	}
	if a1.Anonymize(addr) == a3.Anonymize(addr) {
		t.Error("different passphrases produced identical mapping (unlikely)")
	}
}

func TestCachedMatchesUncached(t *testing.T) {
	inner := NewFromPassphrase("cache-check")
	c := NewCached(inner)
	rng := rand.New(rand.NewSource(11))
	addrs := make([]ipaddr.Addr, 2000)
	for i := range addrs {
		addrs[i] = ipaddr.Addr(rng.Uint32() % 4096) // force repeats
	}
	for _, in := range addrs {
		if one(c.AnonymizeBatch, in) != inner.Anonymize(in) {
			t.Fatalf("cached mapping diverges for %v", in)
		}
	}
	if c.Len() > 4096 {
		t.Errorf("cache holds %d entries for <=4096 unique inputs", c.Len())
	}
}

func TestCachedConcurrent(t *testing.T) {
	c := NewCached(NewFromPassphrase("concurrent"))
	done := make(chan map[ipaddr.Addr]ipaddr.Addr, 8)
	for g := 0; g < 8; g++ {
		go func(seed int64) {
			rng := rand.New(rand.NewSource(seed))
			m := make(map[ipaddr.Addr]ipaddr.Addr)
			for i := 0; i < 2000; i++ {
				in := ipaddr.Addr(rng.Uint32() % 1000)
				m[in] = one(c.AnonymizeBatch, in)
			}
			done <- m
		}(int64(g))
	}
	merged := make(map[ipaddr.Addr]ipaddr.Addr)
	for g := 0; g < 8; g++ {
		for k, v := range <-done {
			if prev, ok := merged[k]; ok && prev != v {
				t.Fatalf("goroutines observed different mappings for %v", k)
			}
			merged[k] = v
		}
	}
}

func BenchmarkAnonymize(b *testing.B) {
	a := NewFromPassphrase("bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.Anonymize(ipaddr.Addr(i))
	}
}
