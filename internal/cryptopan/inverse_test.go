package cryptopan

// inverse_test.go pins the keyed inverse: Deanonymize/DeanonymizeBatch
// undo Anonymize/AnonymizeBatch on every address, in every input order,
// and agree with a one-AES-per-bit reference inverse that shares no
// code with the table- and prefix-sharing walk.

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/ipaddr"
	"repro/internal/testkit"
)

// deanonymizeRef inverts the reference walk one bit at a time: orig bit
// i is anon bit i XORed with the flip bit of the i original bits found
// so far. No table, no sharing — the oracle for the fast inverse.
func (a *Anonymizer) deanonymizeRef(addr ipaddr.Addr) ipaddr.Addr {
	anon := uint32(addr)
	padTop := binary.BigEndian.Uint32(a.pad[:4])
	var orig uint32
	var block, out [16]byte
	copy(block[4:], a.pad[4:])
	for i := 0; i < 32; i++ {
		mask := uint32(0)
		if i > 0 {
			mask = ^uint32(0) << (32 - uint(i))
		}
		binary.BigEndian.PutUint32(block[:4], orig&mask|padTop&^mask)
		a.cipher.Encrypt(out[:], block[:])
		bit := uint32(1) << (31 - uint(i))
		orig |= (anon ^ uint32(out[0]>>7)<<(31-uint(i))) & bit
	}
	return ipaddr.Addr(orig)
}

// edgeAddrs are the addresses where the inverse walk changes regime:
// the ends of the address space and of the darkspace, and neighbours
// that part at the last walk level (bit 31), at the first level past
// the top16 table (bit 16), and at the table's own last level (bit 15).
func edgeAddrs() []ipaddr.Addr {
	dark := ipaddr.MustParsePrefix("44.0.0.0/8")
	out := []ipaddr.Addr{
		0, ^ipaddr.Addr(0),
		dark.Nth(0), dark.Nth(dark.Size() - 1),
		dark.Nth(0) - 1, dark.Nth(dark.Size()-1) + 1,
	}
	for _, base := range []ipaddr.Addr{0, dark.Nth(0x123456), 0x80000000, 0xfffefffe} {
		out = append(out, base, base^1, base^(1<<15), base^(1<<16))
	}
	return out
}

// inverseShapes are the slabs the round trip is checked on, each in the
// three orders a caller can present: as generated (unsorted), ascending
// (what a window's row scan yields), and duplicate-heavy.
func inverseShapes(rng *rand.Rand) map[string][]ipaddr.Addr {
	random := make([]ipaddr.Addr, 700)
	for i := range random {
		random[i] = ipaddr.Addr(rng.Uint32())
	}
	shapes := map[string][]ipaddr.Addr{
		"random":    random,
		"clustered": batchAddrs(rng, 700),
		"edges":     edgeAddrs(),
	}
	for name, addrs := range map[string][]ipaddr.Addr{"random": random, "edges": edgeAddrs()} {
		sorted := slices.Clone(addrs)
		slices.Sort(sorted)
		shapes[name+"/sorted"] = sorted
		dup := make([]ipaddr.Addr, 0, 3*len(addrs))
		for len(dup) < cap(dup) {
			dup = append(dup, addrs[rng.Intn(1+len(addrs)/8)])
		}
		shapes[name+"/duplicates"] = dup
	}
	return shapes
}

func TestDeanonymizeBatchRoundTrip(t *testing.T) {
	a := NewFromPassphrase("round trip")
	for name, addrs := range inverseShapes(rand.New(rand.NewSource(41))) {
		anon := slices.Clone(addrs)
		a.AnonymizeBatch(anon)
		back := slices.Clone(anon)
		a.DeanonymizeBatch(back)
		for i := range addrs {
			if back[i] != addrs[i] {
				t.Fatalf("%s[%d]: %v anonymized to %v, de-anonymized to %v", name, i, addrs[i], anon[i], back[i])
			}
		}
		// The other composition: every address is somebody's image.
		fwd := slices.Clone(addrs)
		a.DeanonymizeBatch(fwd)
		a.AnonymizeBatch(fwd)
		if !slices.Equal(fwd, addrs) {
			t.Fatalf("%s: AnonymizeBatch(DeanonymizeBatch(x)) != x", name)
		}
	}
}

// TestInverseAgreement: batch inverse == scalar inverse == reference
// inverse, and all of them invert the anonymizeRef oracle.
func TestInverseAgreement(t *testing.T) {
	for _, phrase := range []string{"agreement", "a second key"} {
		a := NewFromPassphrase(phrase)
		for name, addrs := range inverseShapes(rand.New(rand.NewSource(43))) {
			batch := slices.Clone(addrs)
			a.DeanonymizeBatch(batch)
			for i, x := range addrs {
				ref := a.deanonymizeRef(x)
				if got := a.Deanonymize(x); got != ref || batch[i] != ref {
					t.Fatalf("%q %s[%d]=%v: batch %v, scalar %v, reference %v", phrase, name, i, x, batch[i], got, ref)
				}
				if a.anonymizeRef(ref) != x {
					t.Fatalf("%q %s[%d]: anonymizeRef(deanonymize(%v)) = %v", phrase, name, i, x, a.anonymizeRef(ref))
				}
			}
		}
	}
}

// TestInversePreservesPrefixes: the inverse of a prefix-preserving map
// is prefix-preserving, which is what lets the inverse walk share levels
// between neighbours in anonymized order.
func TestInversePreservesPrefixes(t *testing.T) {
	a := NewFromPassphrase("inverse prefixes")
	rng := rand.New(rand.NewSource(47))
	for i := 0; i < 2000; i++ {
		x := ipaddr.Addr(rng.Uint32())
		k := uint(rng.Intn(32)) // y parts from x at bit k and is random below it
		y := x ^ 1<<k ^ ipaddr.Addr(rng.Uint32())&(1<<k-1)
		if got, want := commonPrefixLen(a.Deanonymize(x), a.Deanonymize(y)), commonPrefixLen(x, y); got != want {
			t.Fatalf("%v, %v share %d bits, their originals share %d", x, y, want, got)
		}
	}
}

// TestDeanonymizeBatchZeroAlloc: the owner inverts one source vector
// per snapshot for as long as the daemon lives; the warm path keeps its
// scratch.
func TestDeanonymizeBatchZeroAlloc(t *testing.T) {
	if testkit.RaceEnabled {
		t.Skip("allocation accounting is perturbed by the race detector")
	}
	a := NewFromPassphrase("inverse allocs")
	slab := batchAddrs(rand.New(rand.NewSource(53)), 512)
	work := make([]ipaddr.Addr, len(slab))
	copy(work, slab)
	a.DeanonymizeBatch(work)
	if allocs := testing.AllocsPerRun(20, func() {
		copy(work, slab)
		a.DeanonymizeBatch(work)
	}); allocs != 0 {
		t.Errorf("warm DeanonymizeBatch allocates %.1f per slab, want 0", allocs)
	}
}

// FuzzAnonymizeRoundTrip feeds arbitrary slabs through both directions
// under 256 keys: the batch round trip is the identity in both orders,
// and each element agrees with the scalar walk and the reference
// inverse. Each key also walks one prefix of 44.127.58.145 (key mod 33
// bits long, so key 8 is the darkspace), whose walker must agree with
// the reference and invert like everything else.
func FuzzAnonymizeRoundTrip(f *testing.F) {
	f.Add(uint8(0), []byte{})
	f.Add(uint8(0), []byte{0, 0, 0, 0, 255, 255, 255, 255, 44, 0, 0, 0, 44, 255, 255, 255})
	f.Add(uint8(7), []byte{44, 1, 2, 3, 44, 1, 2, 2, 44, 1, 130, 3, 44, 1, 2, 3, 1})
	f.Add(uint8(8), []byte{44, 0, 0, 0, 44, 255, 255, 255, 43, 255, 255, 255, 45, 0, 0, 0, 44, 1, 2, 3, 44, 1, 2, 131})
	f.Add(uint8(24), []byte{44, 127, 58, 0, 44, 127, 58, 255, 44, 127, 59, 0, 44, 127, 57, 255})
	// A key's tables cost 2^16 AES blocks to build; keep them per key.
	var mu sync.Mutex
	var keys [256]*Anonymizer
	f.Fuzz(func(t *testing.T, key uint8, raw []byte) {
		if len(raw) > 4*256 {
			raw = raw[:4*256] // the reference costs 32 AES blocks per address
		}
		mu.Lock()
		if keys[key] == nil {
			keys[key] = NewFromPassphrase(string(rune(key)))
		}
		a := keys[key]
		mu.Unlock()
		addrs := make([]ipaddr.Addr, len(raw)/4)
		for i := range addrs {
			addrs[i] = ipaddr.Addr(binary.BigEndian.Uint32(raw[4*i:]))
		}
		anon := slices.Clone(addrs)
		a.AnonymizeBatch(anon)
		back := slices.Clone(anon)
		a.DeanonymizeBatch(back)
		w := a.Within(ipaddr.Prefix{Base: ipaddr.MustParse("44.127.58.145"), Bits: int(key) % 33})
		within := slices.Clone(addrs)
		w.AnonymizeBatch(within)
		for i, x := range addrs {
			if anon[i] != a.anonymizeRef(x) {
				t.Fatalf("AnonymizeBatch[%d](%v) = %v, reference %v", i, x, anon[i], a.anonymizeRef(x))
			}
			if within[i] != anon[i] || a.Deanonymize(one(w.AnonymizeBatch, x)) != x {
				t.Fatalf("Within[%d](%v): batch %v, scalar %v, reference %v", i, x, within[i], one(w.AnonymizeBatch, x), anon[i])
			}
			if back[i] != x || a.Deanonymize(anon[i]) != x || a.deanonymizeRef(anon[i]) != x {
				t.Fatalf("round trip of %v via %v: batch %v, scalar %v, reference %v",
					x, anon[i], back[i], a.Deanonymize(anon[i]), a.deanonymizeRef(anon[i]))
			}
		}
		pre := slices.Clone(addrs)
		a.DeanonymizeBatch(pre)
		a.AnonymizeBatch(pre)
		if !slices.Equal(pre, addrs) {
			t.Fatalf("AnonymizeBatch(DeanonymizeBatch(x)) != x on %v", addrs)
		}
	})
}
