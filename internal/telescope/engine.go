package telescope

// engine.go plugs the telescope into the sharded streaming window
// engine: the validity filter and the CryptoPAN mapping both run on the
// engine's shard workers — each worker filters its chunk of the slab,
// then anonymizes the survivors' sources as one batch through its own
// L1 memo (misses fall through to the shared sharded cache in a single
// lock epoch per cache shard, with prefix-shared AES walks) and their
// destinations through the darkspace's prefix walker, in slab order,
// which memoizes nothing — and the engine's merge tree produces the
// window matrix. Workers=1 is
// the serial degenerate path, byte-identical to CaptureWindow's output.

import (
	"context"

	"repro/internal/cryptopan"
	"repro/internal/engine"
	"repro/internal/ipaddr"
	"repro/internal/pcap"
)

// shardAnon is one shard worker's persistent anonymization state: the
// L1 memo in front of the telescope's shared cache, plus the address
// slabs the mapper gathers packet endpoints into. All are reused across
// captures (Telescope runs one capture at a time), so steady-state
// mapping allocates nothing.
type shardAnon struct {
	l1         *cryptopan.L1
	srcs, dsts []ipaddr.Addr
}

// Engine returns a window engine wired to this telescope's validity
// filter, anonymizer, and leaf size. workers and batch follow
// engine.Config semantics (<= 0 picks defaults). Each shard worker maps
// whole accepted-packet slabs at a time. It gathers the slab's sources
// and anonymizes them in one batched call through its own L1 memo, so
// hot (heavy-tailed) sources cost one lock-free array probe and cold
// slabs pay one lock epoch per touched cache shard instead of a lock
// round-trip per packet. The slab's destinations — Valid has placed
// them all inside the darkspace, and they almost never recur — take the
// darkspace's prefix walk (two table lookups and a 7-block AES tail
// for a /8) and are inserted nowhere.
//
// Engines are cached per (workers, batch) and reused across captures,
// so the engine's pooled shard accumulators and slab buffers — and the
// per-shard L1 memos — stay warm from one window to the next. This is
// covered by the Telescope's one-capture-at-a-time contract.
func (t *Telescope) Engine(workers, batch int) (*engine.Engine, error) {
	t.poolMu.Lock()
	if eng, ok := t.engines[[2]int{workers, batch}]; ok {
		t.poolMu.Unlock()
		return eng, nil
	}
	t.poolMu.Unlock()
	eng, err := engine.NewPerWorkerSlab(
		engine.Config{Workers: workers, LeafSize: t.leafSize, Batch: batch},
		t.Valid,
		func(shard int) engine.SlabMapper {
			sa := t.shardAnon(shard)
			return func(pkts []pcap.Packet, dst []engine.Pair) {
				srcs, dsts := sa.srcs[:0], sa.dsts[:0]
				for i := range pkts {
					srcs = append(srcs, pkts[i].Src)
					dsts = append(dsts, pkts[i].Dst)
				}
				sa.l1.AnonymizeBatch(srcs)
				t.dark.AnonymizeBatch(dsts)
				for i := range pkts {
					dst[i] = engine.Pair{Row: uint32(srcs[i]), Col: uint32(dsts[i])}
				}
				sa.srcs, sa.dsts = srcs, dsts
			}
		})
	if err != nil {
		return nil, err
	}
	t.poolMu.Lock()
	t.engines[[2]int{workers, batch}] = eng
	t.poolMu.Unlock()
	return eng, nil
}

// shardAnon returns the given shard's anonymization state, creating it
// on first use. L1 entries memoize the telescope's fixed anonymizer, so
// reusing them across captures is safe and keeps hot addresses warm from
// one window to the next; the one-capture-at-a-time contract on
// Telescope guarantees a shard's state is only ever driven by one
// goroutine at a time.
func (t *Telescope) shardAnon(shard int) *shardAnon {
	t.poolMu.Lock()
	defer t.poolMu.Unlock()
	sa := t.shards[shard]
	if sa == nil {
		sa = &shardAnon{l1: t.anon.NewL1()}
		t.shards[shard] = sa
	}
	return sa
}

// CaptureWindowEngine captures a constant-packet window through the
// sharded streaming engine. It produces the same Window as
// CaptureWindow — the matrix is a sum of the same anonymized triples,
// only leaf boundaries differ — with backpressure-bounded memory and
// context cancellation.
func (t *Telescope) CaptureWindowEngine(ctx context.Context, src PacketSource, nv, workers, batch int) (*Window, error) {
	eng, err := t.Engine(workers, batch)
	if err != nil {
		return nil, err
	}
	ew, err := eng.CaptureWindow(ctx, src, nv)
	if err != nil {
		return nil, err
	}
	// Source errors (e.g. a truncated pcap) surface through the engine's
	// Errorer hook, which ReaderSource satisfies.
	return &Window{
		Start: ew.Start, End: ew.End,
		NV: ew.NV, Dropped: ew.Dropped, Leaves: ew.Leaves,
		Matrix: ew.Matrix,
	}, nil
}
