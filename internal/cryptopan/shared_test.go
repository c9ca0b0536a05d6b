package cryptopan

// shared_test.go is the shared-cache contract the study scheduler (and
// the resident daemon's much longer lifetime) relies on: one Cached
// serves every worker, so concurrent miss storms on overlapping
// address sets must insert idempotently — Len() equals the unique
// address count, never the insert count — and de-anonymization, which
// walks the key and reads no table, must be exact while other
// goroutines are still inserting. Run under -race these tests are also
// the lock-discipline proof.

import (
	"sync"
	"testing"

	"repro/internal/ipaddr"
)

// TestSharedCacheInsertIdempotent storms one address set from many
// goroutines: double-computes on concurrent misses are allowed, but
// double-inserts must collapse — Len drifting past the unique count
// would make the daemon's memo grow without bound over repeated
// captures of the same heavy-tailed sources.
func TestSharedCacheInsertIdempotent(t *testing.T) {
	c := NewCached(NewFromPassphrase("shared-idempotent"))
	const unique = 4096
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker walks the same addresses in a different order,
			// maximizing same-address concurrent misses.
			for i := 0; i < unique; i++ {
				addr := ipaddr.Addr((i*(w+3) + w) % unique)
				one(c.AnonymizeBatch, addr)
			}
			// And once more through a per-worker L1, the engine's real
			// access path.
			l1 := c.NewL1()
			for i := 0; i < unique; i++ {
				one(l1.AnonymizeBatch, ipaddr.Addr(i))
			}
		}(w)
	}
	wg.Wait()
	if got := c.Len(); got != unique {
		t.Fatalf("Len = %d after concurrent misses on %d unique addresses", got, unique)
	}
	// Idempotence of the values too: a second pass must return the same
	// mapping the pure function defines.
	pure := NewFromPassphrase("shared-idempotent")
	for i := 0; i < unique; i += 97 {
		addr := ipaddr.Addr(i)
		if got, want := one(c.AnonymizeBatch, addr), pure.Anonymize(addr); got != want {
			t.Fatalf("Anonymize(%v) = %v after storm, want %v", addr, got, want)
		}
	}
}

// TestInverseConcurrentWithMisses: the owner de-anonymizes one
// snapshot's rows while its neighbours are still capturing. The inverse
// reads nothing the memo writes — it walks the key — so every answer is
// exact whatever has been inserted so far, including on an Anonymizer
// whose lazily built tables the first callers race to build.
func TestInverseConcurrentWithMisses(t *testing.T) {
	c := NewCached(NewFromPassphrase("shared-inverse"))
	const n = 2048
	addr := func(w, i int) ipaddr.Addr { return ipaddr.Addr(i*(w+1) + w) } // overlapping across workers
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(2)
		go func(w int) { // capture: sources through the memo
			defer wg.Done()
			slab := make([]ipaddr.Addr, n)
			for i := range slab {
				slab[i] = addr(w, i)
			}
			c.AnonymizeBatch(slab)
		}(w)
		go func(w int) { // owner: invert what a capture would have produced
			defer wg.Done()
			anon := make([]ipaddr.Addr, n)
			for i := range anon {
				anon[i] = addr(w, i)
			}
			c.Anonymizer().AnonymizeBatch(anon)
			back := append([]ipaddr.Addr(nil), anon...)
			c.Anonymizer().DeanonymizeBatch(back)
			for i := range back {
				if want := addr(w, i); back[i] != want || c.Anonymizer().Deanonymize(anon[i]) != want {
					t.Errorf("worker %d: %v de-anonymized to %v, want %v", w, anon[i], back[i], want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	// The walks above inserted nothing: the memo holds what went through it.
	seen := make(map[ipaddr.Addr]bool)
	for w := 0; w < 4; w++ {
		for i := 0; i < n; i++ {
			seen[addr(w, i)] = true
		}
	}
	if got := c.Len(); got != len(seen) {
		t.Fatalf("Len = %d, want the %d distinct addresses sent through the memo", got, len(seen))
	}
}

// TestSpoofedSourceSweepIsBounded: a sweep of never-repeating spoofed
// sources — the one traffic shape that would grow a sources-only memo
// without bound — is held at shardCap per shard by dropping the full
// shard, on the scalar, batch and L1 paths alike, and no output moves.
func TestSpoofedSourceSweepIsBounded(t *testing.T) {
	a := NewFromPassphrase("spoofed sweep")
	c := NewCached(a)
	l1 := c.NewL1()
	// Every address lands in shard 5, so one shard overflows three times
	// without walking 64 shards' worth of addresses.
	spoofed := func(i int) ipaddr.Addr { return ipaddr.Addr(i*cacheShards + 5) }
	const total = 3*shardCap + 1000
	slab := make([]ipaddr.Addr, 0, 512)
	for i := 0; i < total; i += len(slab) {
		slab = slab[:0]
		for j := i; j < i+cap(slab) && j < total; j++ {
			slab = append(slab, spoofed(j))
		}
		switch (i / cap(slab)) % 3 {
		case 0:
			c.AnonymizeBatch(slab)
		case 1:
			l1.AnonymizeBatch(slab)
		default:
			for k, x := range slab {
				slab[k] = one(c.AnonymizeBatch, x)
			}
		}
		if got, want := slab[len(slab)-1], a.anonymizeRef(spoofed(i+len(slab)-1)); got != want {
			t.Fatalf("address %d: %v, reference %v", i+len(slab)-1, got, want)
		}
		if n := c.Len(); n > shardCap {
			t.Fatalf("memo holds %d addresses after %d spoofed sources, cap is %d", n, i+len(slab), shardCap)
		}
	}
	if got := c.Evictions(); got != 3 {
		t.Errorf("Evictions = %d after %d addresses through one shard of %d, want 3", got, total, shardCap)
	}
	// What survived and what was dropped answer alike.
	for _, i := range []int{0, shardCap - 1, shardCap, 3 * shardCap, total - 1} {
		if got, want := one(c.AnonymizeBatch, spoofed(i)), a.anonymizeRef(spoofed(i)); got != want {
			t.Errorf("after eviction Anonymize(%v) = %v, reference %v", spoofed(i), got, want)
		}
	}
}
