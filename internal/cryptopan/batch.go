package cryptopan

// batch.go vectorizes the Crypto-PAn walk over address slabs about
// which nothing is known in advance: a slab's memo misses (sources,
// from anywhere in the address space) and the keyed inverse's row ids.
// (Destinations are known to lie inside the monitored prefix and take
// the table walk of within.go instead, unsorted.) The batch entry
// points amortize three per-address costs a scalar walk pays: the
// pool round-trip for walk scratch, a per-address RLock/Lock on the
// shared memo shards (batches probe and fill each shard in one lock
// epoch), and — the algorithmic win — AES blocks for walk levels that
// adjacent addresses share. Misses are sorted before walking: the flip
// bit of level i is a pure function of the first i address bits, so
// each address in a sorted pass reuses every level up to its common
// prefix length with its predecessor and only pays AES for the tail.
// Real source slabs are heavy-tailed and prefix-clustered, which makes
// the shared prefixes long exactly when batches are large.
//
// Every entry point computes results bit-identical to
// Anonymizer.Anonymize on each element (the batch differential tests
// pin this), so batching is purely a throughput change.

import (
	"encoding/binary"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/ipaddr"
)

// walkSorted runs the Crypto-PAn walk over a strictly ascending slice,
// writing results into out (which must have len(in)). Forward, in holds
// original addresses and out receives their anonymized forms; inverse,
// in holds anonymized addresses and out receives the originals. Both
// directions are out = in ^ F, where bit i of F is the flip bit of the
// first i *original* bits: forward those are in's own bits, inverse
// they are the bits of in ^ F found so far.
//
// Walk levels 0..15 come from the top16 (inverse: inv16) table; for
// levels 16..31, an address reuses its predecessor's flip bits up to
// their common prefix length and pays one AES block per remaining
// level. The mapping preserves prefix lengths, so the shared length of
// two inputs is the shared length of their originals in either
// direction. The walk runs in passes over the one scratch buffer b, 16
// AES blocks or fewer per address.
func (a *Anonymizer) walkSorted(in, out []uint32, b *walkBuf, inverse bool) {
	a.top16Once.Do(a.buildTop16)
	top := a.top16
	if inverse {
		top = a.inv16
	}
	padTop := binary.BigEndian.Uint32(a.pad[:4])
	var prev, prevFlips uint32
	for k, v := range in {
		hi := uint32(top[v>>16]) << 16
		var flips uint32 // levels 16..31 flip bits at result bits 15..0
		from := 16
		if k > 0 {
			// in is strictly ascending, so v != prev and the shared
			// prefix length is in [0, 31]. Level i (16..31) depends only
			// on the first i bits, so every level <= shared is reusable.
			shared := bits.LeadingZeros32(v ^ prev)
			if shared >= 16 {
				keep := uint32(0xffff) << (31 - shared) & 0xffff
				flips = prevFlips & keep
				from = shared + 1
			}
		}
		// The directions keep separate loops on purpose. Forward
		// (walkTail), no level's AES input depends on another level's
		// output, so one flipBits call takes them all; inverse, each
		// level needs the bit before it, one block per call.
		if inverse {
			for i := from; i < 32; i++ {
				mask := ^uint32(0) << (32 - uint(i))
				orig := v ^ (hi | flips) // its first i bits are final
				b.words[0] = orig&mask | padTop&^mask
				a.flipBits(b, b.words[:1], b.bits[:1])
				flips |= uint32(b.bits[0]) << (31 - uint(i))
			}
		} else {
			flips |= a.walkTail(v, from, padTop, b)
		}
		out[k] = v ^ (hi | flips)
		prev, prevFlips = v, flips
	}
}

// batchScratch is the pooled working set of one walkBatch call.
type batchScratch struct {
	wb   walkBuf
	keys []uint64 // input address << 32 | slab index
	uniq []uint32 // sorted unique inputs
	res  []uint32 // walked values aligned with uniq
}

var batchPool = sync.Pool{New: func() interface{} { return new(batchScratch) }}

// AnonymizeBatch maps a slab of addresses in place, bit-identical to
// calling Anonymize on each element, and remembers nothing: the cost is
// bounded by the slab. Addresses known to share a prefix (a darkspace's
// destinations) are cheaper still on Within. Duplicate addresses
// pay one walk; distinct addresses sharing prefixes share the walk
// levels of their common prefix (see walkSorted). The steady-state path
// allocates nothing: scratch is pooled and retained at slab capacity.
func (a *Anonymizer) AnonymizeBatch(addrs []ipaddr.Addr) { a.walkBatch(addrs, false) }

// DeanonymizeBatch maps a slab of anonymized addresses back to the
// originals in place, bit-identical to calling Deanonymize on each
// element, with the same sharing and the same cost as AnonymizeBatch.
// This is the paper's "sent back to the owner" step: the holder of the
// key inverts a window's reduced source vector without any table of
// what was anonymized before.
func (a *Anonymizer) DeanonymizeBatch(addrs []ipaddr.Addr) { a.walkBatch(addrs, true) }

func (a *Anonymizer) walkBatch(addrs []ipaddr.Addr, inverse bool) {
	if len(addrs) == 0 {
		return
	}
	s := batchPool.Get().(*batchScratch)
	keys := s.keys[:0]
	for i, v := range addrs {
		keys = append(keys, uint64(uint32(v))<<32|uint64(uint32(i)))
	}
	slices.Sort(keys)
	uniq := s.uniq[:0]
	for i, k := range keys {
		v := uint32(k >> 32)
		if i == 0 || v != uint32(keys[i-1]>>32) {
			uniq = append(uniq, v)
		}
	}
	res := growU32(s.res, len(uniq))
	a.walkSorted(uniq, res, &s.wb, inverse)
	ui := 0
	for _, k := range keys {
		for uniq[ui] != uint32(k>>32) {
			ui++
		}
		addrs[uint32(k)] = ipaddr.Addr(res[ui])
	}
	s.keys, s.uniq, s.res = keys, uniq, res
	batchPool.Put(s)
}

// cachedScratch is the pooled working set of one Cached.AnonymizeBatch
// call: per-shard buckets so each memo shard is probed and filled under
// one lock acquisition, plus the miss walk's sorted scratch.
type cachedScratch struct {
	wb      walkBuf
	byShard [cacheShards][]uint64 // packed address << 32 | slab index
	misses  [cacheShards][]uint64 // the subset not found during the probe epoch
	uniq    []uint32
	res     []uint32
}

var cachedBatchPool = sync.Pool{New: func() interface{} { return new(cachedScratch) }}

// AnonymizeBatch maps a slab of addresses in place through the shared
// memo, bit-identical to Anonymizer.Anonymize on each element. Instead of
// a lock acquisition per address, the slab is bucketed by memo shard
// and each shard is probed under one RLock epoch; the misses are
// deduplicated, sorted, walked with prefix sharing (walkSorted),
// and installed under one Lock epoch per shard. Safe for concurrent
// use with every other Cached method: a concurrent miss on the same
// address computes the same pure value, so late insertion is
// idempotent.
func (c *Cached) AnonymizeBatch(addrs []ipaddr.Addr) {
	if len(addrs) == 0 {
		return
	}
	s := cachedBatchPool.Get().(*cachedScratch)
	for i, v := range addrs {
		sh := uint32(v) % cacheShards
		s.byShard[sh] = append(s.byShard[sh], uint64(uint32(v))<<32|uint64(uint32(i)))
	}
	totalMiss := 0
	for sh := range s.byShard {
		entries := s.byShard[sh]
		if len(entries) == 0 {
			continue
		}
		miss := s.misses[sh][:0]
		shard := &c.shards[sh]
		shard.mu.RLock()
		for _, e := range entries {
			if v, ok := shard.m[ipaddr.Addr(uint32(e>>32))]; ok {
				addrs[uint32(e)] = v
			} else {
				miss = append(miss, e)
			}
		}
		shard.mu.RUnlock()
		s.misses[sh] = miss
		totalMiss += len(miss)
	}
	if totalMiss > 0 {
		uniq := s.uniq[:0]
		for sh := range s.misses {
			for _, e := range s.misses[sh] {
				uniq = append(uniq, uint32(e>>32))
			}
		}
		slices.Sort(uniq)
		uniq = slices.Compact(uniq)
		res := growU32(s.res, len(uniq))
		c.inner.walkSorted(uniq, res, &s.wb, false)
		for sh := range s.misses {
			miss := s.misses[sh]
			if len(miss) == 0 {
				continue
			}
			shard := &c.shards[sh]
			shard.mu.Lock()
			for _, e := range miss {
				orig := uint32(e >> 32)
				j, _ := slices.BinarySearch(uniq, orig)
				v := ipaddr.Addr(res[j])
				shard.put(ipaddr.Addr(orig), v)
				addrs[uint32(e)] = v
			}
			shard.mu.Unlock()
		}
		s.uniq, s.res = uniq, res
	}
	for sh := range s.byShard {
		s.byShard[sh] = s.byShard[sh][:0]
		s.misses[sh] = s.misses[sh][:0]
	}
	cachedBatchPool.Put(s)
}

// AnonymizeBatch maps a slab of addresses in place through the L1 memo,
// bit-identical to Anonymizer.Anonymize on each element: hits cost one
// array probe, and all misses of the slab go to the shared cache as a
// single batch (one lock epoch per touched shard, prefix-shared AES
// walks) before being installed in the L1. Like every L1 method it must
// only run on the L1's owning goroutine; the slab itself is caller
// owned and may be reused freely afterwards. The steady-state path
// allocates nothing.
func (l *L1) AnonymizeBatch(addrs []ipaddr.Addr) {
	miss := l.missIdx[:0]
	for i, v := range addrs {
		si := (uint32(v) * 2654435761) >> (32 - l1Bits)
		s := &l.slots[si]
		if s.key == uint64(v)|1<<32 {
			addrs[i] = s.val
		} else {
			miss = append(miss, int32(i))
		}
	}
	if len(miss) == 0 {
		l.missIdx = miss
		return
	}
	ma := l.missAddrs[:0]
	for _, i := range miss {
		ma = append(ma, addrs[i])
	}
	l.shared.AnonymizeBatch(ma)
	for k, i := range miss {
		orig := addrs[i]
		v := ma[k]
		addrs[i] = v
		si := (uint32(orig) * 2654435761) >> (32 - l1Bits)
		l.slots[si] = l1Slot{key: uint64(orig) | 1<<32, val: v}
	}
	l.missIdx, l.missAddrs = miss, ma
}

func growU32(s []uint32, n int) []uint32 {
	if cap(s) < n {
		return make([]uint32, n)
	}
	return s[:n]
}
