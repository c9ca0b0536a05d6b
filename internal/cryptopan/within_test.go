package cryptopan

// within_test.go pins the prefix walker to the one-AES-per-bit
// reference for every prefix length, on the addresses where its three
// regimes meet: inside and outside the prefix, and either side of the
// last tabulated walk level.

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/ipaddr"
	"repro/internal/testkit"
)

// withinAddrs builds the slab a walker of p is checked on: uniform
// randoms (almost all outside a long prefix), randoms and /24 clusters
// inside it, duplicates of all of those, and the edges — the prefix's
// first and last address, their outside neighbours, and pairs inside
// the prefix that differ only in bit p.Bits+16 (the last bit the table
// reads) or p.Bits+17 (the first it does not).
func withinAddrs(rng *rand.Rand, p ipaddr.Prefix) []ipaddr.Addr {
	inside := func() ipaddr.Addr { return p.Base | ipaddr.Addr(rng.Uint32())&^p.Mask() }
	var out []ipaddr.Addr
	cluster := inside() &^ 0xff
	for i := 0; i < 200; i++ {
		out = append(out, ipaddr.Addr(rng.Uint32()), inside(), p.Base|(cluster|ipaddr.Addr(rng.Intn(256)))&^p.Mask())
	}
	for i := 0; i < 200; i++ {
		out = append(out, out[rng.Intn(len(out))])
	}
	first, last := p.Nth(0), p.Nth(p.Size()-1)
	out = append(out, first, last, first-1, last+1, 0, ^ipaddr.Addr(0))
	for _, bit := range []int{p.Bits + 16, p.Bits + 17} {
		if bit > 32 {
			continue
		}
		for i := 0; i < 8; i++ {
			x := inside()
			out = append(out, x, x^1<<(32-uint(bit)))
		}
	}
	return out
}

func TestWithinMatchesReference(t *testing.T) {
	for _, phrase := range []string{"within", "a second key"} {
		a := NewFromPassphrase(phrase)
		rng := rand.New(rand.NewSource(61))
		for bits := 0; bits <= 32; bits++ {
			p := ipaddr.Prefix{Base: ipaddr.Addr(rng.Uint32()), Bits: bits}
			p.Base &= p.Mask()
			w := a.Within(p)
			addrs := withinAddrs(rng, p)
			batch := slices.Clone(addrs)
			w.AnonymizeBatch(batch)
			for i, x := range addrs {
				ref := a.anonymizeRef(x)
				if got := one(w.AnonymizeBatch, x); got != ref || batch[i] != ref {
					t.Fatalf("%q %v addr[%d]=%v: batch %v, scalar %v, reference %v", phrase, p, i, x, batch[i], got, ref)
				}
			}
		}
	}
}

// TestWithinSharesOneWalkerPerPrefix: telescopes that share a key and
// a darkspace share a table, however they spell the prefix.
func TestWithinSharesOneWalkerPerPrefix(t *testing.T) {
	a := NewFromPassphrase("one walker")
	dark := ipaddr.MustParsePrefix("44.0.0.0/8")
	if a.Within(dark) != a.Within(ipaddr.Prefix{Base: ipaddr.MustParse("44.1.2.3"), Bits: 8}) {
		t.Error("the same /8 under an unmasked base got a second walker")
	}
	if a.Within(dark) == a.Within(ipaddr.MustParsePrefix("44.0.0.0/9")) {
		t.Error("different prefixes share a walker")
	}
}

// TestWithinFirstUseRace: the table is built on first use, by whichever
// of a study's telescopes captures first. Run under -race -count=10.
func TestWithinFirstUseRace(t *testing.T) {
	a := NewFromPassphrase("first use")
	dark := ipaddr.MustParsePrefix("44.0.0.0/8")
	const goroutines = 8
	tables := make([]*uint16, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			w := a.Within(dark)
			x := dark.Nth(uint64(g) * 0x1f3d5)
			if got, want := one(w.AnonymizeBatch, x), a.anonymizeRef(x); got != want {
				t.Errorf("goroutine %d: Anonymize(%v) = %v, reference %v", g, x, got, want)
			}
			tables[g] = &w.table[0]
		}(g)
	}
	wg.Wait()
	for g, tab := range tables {
		if tab != tables[0] {
			t.Fatalf("goroutine %d walked a different table than goroutine 0", g)
		}
	}
}

func TestWithinWarmZeroAlloc(t *testing.T) {
	if testkit.RaceEnabled {
		t.Skip("allocation accounting is perturbed by the race detector")
	}
	dark := ipaddr.MustParsePrefix("44.0.0.0/8")
	w := NewFromPassphrase("within allocs").Within(dark)
	slab := withinAddrs(rand.New(rand.NewSource(67)), dark)
	work := make([]ipaddr.Addr, len(slab))
	copy(work, slab)
	w.AnonymizeBatch(work) // builds both tables
	if allocs := testing.AllocsPerRun(20, func() {
		copy(work, slab)
		w.AnonymizeBatch(work)
		w.AnonymizeBatch(work[:1])
	}); allocs != 0 {
		t.Errorf("warm prefix walk allocates %.1f per slab, want 0", allocs)
	}
}

// BenchmarkCryptopanBatchDarkspace is a capture chunk's destination
// walk: 16 384 addresses spread over a /8, which share almost nothing
// below bit 22. sorted is Anonymizer.AnonymizeBatch (what the slab
// mapper called before Within), prefix is the walker; both report
// ns/addr. table is what a fresh key pays before its first
// destination: the top16 table and the /8 table, about 196 k AES
// blocks, one key per op.
func BenchmarkCryptopanBatchDarkspace(b *testing.B) {
	a := NewFromPassphrase("bench darkspace")
	dark := ipaddr.MustParsePrefix("44.0.0.0/8")
	rng := rand.New(rand.NewSource(71))
	addrs := make([]ipaddr.Addr, 1<<14)
	for i := range addrs {
		addrs[i] = dark.Nth(uint64(rng.Uint32()) & (dark.Size() - 1))
	}
	work := make([]ipaddr.Addr, len(addrs))
	for _, bc := range []struct {
		name string
		walk func([]ipaddr.Addr)
	}{
		{"sorted", a.AnonymizeBatch},
		{"prefix", a.Within(dark).AnonymizeBatch},
	} {
		b.Run(bc.name, func(b *testing.B) {
			bc.walk(work[:1]) // build the tables outside the loop
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(work, addrs)
				bc.walk(work)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(addrs)), "ns/addr")
		})
	}
	b.Run("table", func(b *testing.B) {
		key := testKey()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			key[0] = byte(i)
			a, err := newAnonymizer(key)
			if err != nil {
				b.Fatal(err)
			}
			one(a.Within(dark).AnonymizeBatch, dark.Nth(0))
		}
	})
}
