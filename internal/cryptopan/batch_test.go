package cryptopan

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/ipaddr"
)

// batchAddrs builds a slab mixing the address shapes the walk cares
// about: uniform randoms (short shared prefixes), /16- and /24-clustered
// runs (long shared prefixes, the telescope's heavy-tail shape), and
// exact duplicates.
// one maps a single address through a batch walk, as a one-element
// slab.
func one(batch func([]ipaddr.Addr), addr ipaddr.Addr) ipaddr.Addr {
	slab := [1]ipaddr.Addr{addr}
	batch(slab[:])
	return slab[0]
}

func batchAddrs(rng *rand.Rand, n int) []ipaddr.Addr {
	out := make([]ipaddr.Addr, 0, n)
	base := rng.Uint32()
	for len(out) < n {
		switch rng.Intn(4) {
		case 0:
			out = append(out, ipaddr.Addr(rng.Uint32()))
		case 1:
			out = append(out, ipaddr.Addr(base&0xffff0000|rng.Uint32()&0xffff))
		case 2:
			out = append(out, ipaddr.Addr(base&0xffffff00|rng.Uint32()&0xff))
		default:
			if len(out) > 0 {
				out = append(out, out[rng.Intn(len(out))])
			} else {
				out = append(out, ipaddr.Addr(rng.Uint32()))
			}
		}
	}
	return out
}

// TestAnonymizeBatchMatchesSerial: the prefix-sharing batch walk must be
// bit-identical to per-address Anonymize for every slab shape and size.
func TestAnonymizeBatchMatchesSerial(t *testing.T) {
	a := NewFromPassphrase("batch differential")
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 3, 16, 64, 1000} {
		addrs := batchAddrs(rng, n)
		got := append([]ipaddr.Addr(nil), addrs...)
		a.AnonymizeBatch(got)
		for i, orig := range addrs {
			if want := a.Anonymize(orig); got[i] != want {
				t.Fatalf("n=%d addr[%d]=%v: batch %v, serial %v", n, i, orig, got[i], want)
			}
		}
	}
}

// TestAnonymizeBatchMatchesReference re-anchors the batch walk against
// the unoptimized one-AES-per-bit reference, not just the table walk.
func TestAnonymizeBatchMatchesReference(t *testing.T) {
	a := NewFromPassphrase("batch vs reference")
	rng := rand.New(rand.NewSource(11))
	addrs := batchAddrs(rng, 64)
	got := append([]ipaddr.Addr(nil), addrs...)
	a.AnonymizeBatch(got)
	for i, orig := range addrs {
		if want := a.anonymizeRef(orig); got[i] != want {
			t.Fatalf("addr[%d]=%v: batch %v, reference %v", i, orig, got[i], want)
		}
	}
}

// TestCachedBatchMatchesSerial: cold and warm slabs through the shared
// memo must match the scalar path, and the two caches must memoize the
// same address set.
func TestCachedBatchMatchesSerial(t *testing.T) {
	serial := NewCached(NewFromPassphrase("cached batch"))
	batch := NewCached(NewFromPassphrase("cached batch"))
	rng := rand.New(rand.NewSource(13))
	addrs := batchAddrs(rng, 500)
	for round := 0; round < 3; round++ { // round 0 cold, then warm + partial
		slab := append([]ipaddr.Addr(nil), addrs[:500-round*100]...)
		batch.AnonymizeBatch(slab)
		for i, orig := range addrs[:len(slab)] {
			if want := one(serial.AnonymizeBatch, orig); slab[i] != want {
				t.Fatalf("round %d addr[%d]: batch %v, serial %v", round, i, slab[i], want)
			}
		}
	}
	if serial.Len() != batch.Len() {
		t.Fatalf("memo sizes diverged: serial %d, batch %d", serial.Len(), batch.Len())
	}
}

// TestL1BatchMatchesSerial: the per-goroutine memo's batch path must
// match the per-bit reference walk, cold and warm.
func TestL1BatchMatchesSerial(t *testing.T) {
	c := NewCached(NewFromPassphrase("l1 batch"))
	l1 := c.NewL1()
	rng := rand.New(rand.NewSource(17))
	for round := 0; round < 4; round++ {
		slab := batchAddrs(rng, 300)
		orig := append([]ipaddr.Addr(nil), slab...)
		l1.AnonymizeBatch(slab)
		for i := range slab {
			if want := c.Anonymizer().anonymizeRef(orig[i]); slab[i] != want {
				t.Fatalf("round %d addr[%d]=%v: l1 batch %v, reference %v", round, i, orig[i], slab[i], want)
			}
		}
	}
}

// TestCachedBatchConcurrent hammers AnonymizeBatch from many goroutines
// over overlapping slabs (run under -race in CI) and checks every result
// against a serial oracle.
func TestCachedBatchConcurrent(t *testing.T) {
	c := NewCached(NewFromPassphrase("concurrent batch"))
	const goroutines = 8
	var wg sync.WaitGroup
	results := make([][]ipaddr.Addr, goroutines)
	inputs := make([][]ipaddr.Addr, goroutines)
	for g := 0; g < goroutines; g++ {
		rng := rand.New(rand.NewSource(int64(g)))
		inputs[g] = batchAddrs(rng, 400)
		results[g] = append([]ipaddr.Addr(nil), inputs[g]...)
	}
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Mix batch and scalar calls to race both entry points.
			c.AnonymizeBatch(results[g][:200])
			for i := 200; i < 300; i++ {
				results[g][i] = one(c.AnonymizeBatch, results[g][i])
			}
			c.AnonymizeBatch(results[g][300:])
		}(g)
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		for i, orig := range inputs[g] {
			if want := c.Anonymizer().anonymizeRef(orig); results[g][i] != want {
				t.Fatalf("goroutine %d addr[%d]=%v: got %v, want %v", g, i, orig, results[g][i], want)
			}
		}
	}
}

// TestBatchWarmZeroAlloc gates the warm (all-hit) batch paths at zero
// allocations.
func TestBatchWarmZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is perturbed by the race detector")
	}
	c := NewCached(NewFromPassphrase("warm allocs"))
	l1 := c.NewL1()
	rng := rand.New(rand.NewSource(23))
	slab := batchAddrs(rng, 512)
	work := make([]ipaddr.Addr, len(slab))

	copy(work, slab)
	c.AnonymizeBatch(work) // cold fill + scratch warmup
	if allocs := testing.AllocsPerRun(20, func() {
		copy(work, slab)
		c.AnonymizeBatch(work)
	}); allocs != 0 {
		t.Errorf("warm Cached.AnonymizeBatch allocates %.1f per slab, want 0", allocs)
	}

	copy(work, slab)
	l1.AnonymizeBatch(work)
	if allocs := testing.AllocsPerRun(20, func() {
		copy(work, slab)
		l1.AnonymizeBatch(work)
	}); allocs != 0 {
		t.Errorf("warm L1.AnonymizeBatch allocates %.1f per slab, want 0", allocs)
	}
}

func BenchmarkCryptopanBatchCold(b *testing.B) {
	a := NewFromPassphrase("bench cold batch")
	a.Anonymize(0) // build the top16 table outside the loop
	rng := rand.New(rand.NewSource(29))
	addrs := batchAddrs(rng, 4096)
	work := make([]ipaddr.Addr, len(addrs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, addrs)
		a.AnonymizeBatch(work)
	}
}

func BenchmarkCryptopanBatchWarm(b *testing.B) {
	c := NewCached(NewFromPassphrase("bench warm batch"))
	rng := rand.New(rand.NewSource(31))
	addrs := batchAddrs(rng, 4096)
	work := make([]ipaddr.Addr, len(addrs))
	copy(work, addrs)
	c.AnonymizeBatch(work)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, addrs)
		c.AnonymizeBatch(work)
	}
}
