package cryptopan

import (
	"sync"

	"repro/internal/ipaddr"
)

// Cached wraps an Anonymizer with a sharded lookup table. The full
// Crypto-PAn transform costs 32 AES block encryptions per address; the
// telescope anonymizes every packet of a window, but windows contain far
// fewer unique sources than packets (the paper's 2^30-packet samples
// hold 500k-800k unique sources), and the same heavy-tailed sources
// come back window after window, so memoizing them removes almost all
// of the cost. It is meant for addresses that repeat, and its size is
// the number of distinct addresses sent through it — up to shardCap per
// shard: a shard that fills up (a spoofed-source sweep, not a workload)
// is dropped whole and starts again, which Evictions counts. A value
// is a pure function of its key, so eviction costs a re-walk and
// changes no output. Addresses that do not repeat belong on
// Anonymizer().Within or AnonymizeBatch, which remember nothing.
type Cached struct {
	inner  *Anonymizer
	shards [cacheShards]cacheShard
}

const cacheShards = 64

// shardCap bounds one shard's map: 64 x 2^16 = 4M addresses in all,
// five times the distinct sources of one of the paper's 2^30-packet
// windows and two hundred times the largest study here.
const shardCap = 1 << 16

type cacheShard struct {
	mu        sync.RWMutex
	m         map[ipaddr.Addr]ipaddr.Addr
	evictions int
}

// put memoizes addr → v; the caller holds s.mu for writing.
func (s *cacheShard) put(addr, v ipaddr.Addr) {
	if len(s.m) >= shardCap {
		s.m = make(map[ipaddr.Addr]ipaddr.Addr, 1<<10)
		s.evictions++
	}
	s.m[addr] = v
}

// NewCached wraps a in a concurrency-safe memo table. Shard maps are
// pre-sized for the tens of thousands of distinct sources a window
// holds, skipping the incremental-rehash churn of growing 64 maps from
// empty on every cold capture.
func NewCached(a *Anonymizer) *Cached {
	c := &Cached{inner: a}
	for i := range c.shards {
		c.shards[i].m = make(map[ipaddr.Addr]ipaddr.Addr, 1<<10)
	}
	return c
}

// Anonymizer returns the wrapped transform, for the two things a memo
// is the wrong tool for: anonymizing addresses that will not repeat
// (AnonymizeBatch, which remembers nothing) and inverting the mapping
// (Deanonymize, which needs the key and not a record of past inputs).
func (c *Cached) Anonymizer() *Anonymizer { return c.inner }

// Len reports the number of memoized addresses across all shards.
func (c *Cached) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		n += len(s.m)
		s.mu.RUnlock()
	}
	return n
}

// Evictions reports how many times a full shard has been dropped.
func (c *Cached) Evictions() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		n += s.evictions
		s.mu.RUnlock()
	}
	return n
}

// l1Bits sizes the direct-mapped L1: 2^14 slots x 16 bytes = 256 KiB.
const l1Bits = 14

// l1Slot is one direct-mapped cache line: the key carries a presence
// marker in bit 32 so the zero slot never matches a real address.
type l1Slot struct {
	key uint64
	val ipaddr.Addr
}

// L1 is a single-goroutine memo in front of a shared Cached: lookups
// hit a direct-mapped array (one multiply-shift hash, no Go map, no
// locks) and fall through to the shared table on miss, overwriting the
// colliding slot. The engine gives each shard worker its own L1, so the
// per-packet cost of repeated addresses (heavy-tailed sources dominate
// packets) is one array probe. An L1 must only ever be used from one
// goroutine at a time, but it may be reused across captures: entries
// memoize a pure function of the key, so they never go stale.
type L1 struct {
	shared *Cached
	slots  [1 << l1Bits]l1Slot

	// AnonymizeBatch miss scratch, retained at slab capacity so warm
	// batches allocate nothing.
	missIdx   []int32
	missAddrs []ipaddr.Addr
}

// NewL1 returns an empty per-goroutine memo over the shared cache.
func (c *Cached) NewL1() *L1 {
	return &L1{shared: c}
}
