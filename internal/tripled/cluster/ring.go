// Package cluster is the fault-tolerant multi-node face of the tripled
// service: a smart client that spreads row keys over N servers with a
// consistent-hash ring, writes every cell to the live ones of its R
// replicas, and serves reads with automatic failover when a node
// times out or drops — the reproduction's stand-in for the Accumulo
// tablet-server fleet behind the paper's D4M tables.
//
// The ring is a pure function of the member addresses: every client
// that knows the same address list computes the same placement, so
// there is no coordinator, no metadata service, and nothing to
// desynchronize. Failure handling is deliberately fail-stop: a node
// that times out is marked down for the life of the client and its
// replicas carry on; a node that comes back is NOT readmitted (its
// tables may have missed writes), so recovery is "restart the study's
// clients", matching how the batch pipeline actually runs.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// vnodes is the virtual-node count per server: enough tokens that a
// 3-node ring splits key space within a few percent of evenly, small
// enough that ring construction is microseconds.
const vnodes = 128

// ring is a consistent-hash ring over node indices. Immutable after
// build; placement never changes when nodes die — replicas simply
// shrink to the live members of each key's replica set.
type ring struct {
	tokens []token
	nodes  int
}

type token struct {
	hash uint64
	node int
}

// buildRing places vnodes tokens per node. Token positions depend only
// on (address, vnode index), so every client over the same address
// list agrees on placement regardless of the order nodes fail.
func buildRing(addrs []string) *ring {
	r := &ring{tokens: make([]token, 0, len(addrs)*vnodes), nodes: len(addrs)}
	for i, addr := range addrs {
		for v := 0; v < vnodes; v++ {
			r.tokens = append(r.tokens, token{hash: hashKey(fmt.Sprintf("%s#%d", addr, v)), node: i})
		}
	}
	// Sort by hash; break the (astronomically rare) collision by node
	// index so placement stays deterministic.
	sort.Slice(r.tokens, func(a, b int) bool {
		if r.tokens[a].hash != r.tokens[b].hash {
			return r.tokens[a].hash < r.tokens[b].hash
		}
		return r.tokens[a].node < r.tokens[b].node
	})
	return r
}

// hashKey is FNV-1a 64 run through a splitmix64 finalizer: FNV alone
// avalanches poorly on the short, similar strings that dominate here
// ("host:port#3", "src-0042"), bunching ring tokens and skewing node
// shares by 50%+; the finalizer spreads them to within a few percent
// of fair. Fast, dependency-free, stable across runs.
func hashKey(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// replicasFor returns the r distinct nodes owning key, in preference
// order: the first token at or clockwise of the key's hash owns the
// primary copy, and the walk continues clockwise collecting distinct
// nodes. r is clamped to the member count.
func (rg *ring) replicasFor(key string, r int) []int {
	if r > rg.nodes {
		r = rg.nodes
	}
	if r < 1 || len(rg.tokens) == 0 {
		return nil
	}
	h := hashKey(key)
	start := sort.Search(len(rg.tokens), func(i int) bool { return rg.tokens[i].hash >= h })
	out := make([]int, 0, r)
	seen := make(map[int]bool, r)
	for i := 0; i < len(rg.tokens) && len(out) < r; i++ {
		t := rg.tokens[(start+i)%len(rg.tokens)]
		if !seen[t.node] {
			seen[t.node] = true
			out = append(out, t.node)
		}
	}
	return out
}
