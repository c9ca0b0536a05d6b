package telescope

// engine.go plugs the telescope into the sharded streaming window
// engine: the validity filter and the CryptoPAN mapping both run on the
// engine's shard workers — each worker filters its chunk of the slab,
// then anonymizes the survivors' sources as one batch through its own
// L1 memo (misses fall through to the shared sharded cache in a single
// lock epoch per cache shard, with prefix-shared AES walks) and their
// destinations through the darkspace's prefix walker, in slab order,
// which memoizes nothing — and the engine's merge tree produces the
// window matrix. CaptureWindowEngine is the one capture path.

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

// engineFor returns a window engine wired to this telescope's validity
// filter, slab mapper, and leaf size. workers and batch follow
// engine.Config semantics (<= 0 picks defaults).
//
// Engines are cached per resolved (workers, batch) — workers <= 0 is
// GOMAXPROCS at the time of the call, so a process that changes it
// between captures gets the new shard count — and reused across
// captures, so the engine's pooled shard accumulators and slab buffers
// — and the per-shard L1 memos — stay warm from one window to the next.
// This is covered by the Telescope's one-capture-at-a-time contract.
func (t *Telescope) engineFor(workers, batch int) (*engine.Engine, error) {
	cfg := engine.Config{Workers: workers, LeafSize: t.leafSize, Batch: batch}.Normalized()
	key := [2]int{cfg.Workers, cfg.Batch}
	t.poolMu.Lock()
	defer t.poolMu.Unlock()
	if eng, ok := t.engines[key]; ok {
		return eng, nil
	}
	eng, err := engine.New(cfg, t.valid, t.slabMapper)
	if err != nil {
		return nil, err
	}
	t.engines[key] = eng
	return eng, nil
}

// slabMapper is the telescope's one packet → matrix-coordinate mapping,
// whole accepted-packet slabs at a time. It gathers the slab's sources
// and anonymizes them in one batched call through the shard's own L1
// memo, so hot (heavy-tailed) sources cost one lock-free array probe and
// cold slabs pay one lock epoch per touched cache shard instead of a
// lock round-trip per packet. The slab's destinations — Valid has placed
// them all inside the darkspace, and they almost never recur — take the
// darkspace's prefix walk (two table lookups and a 7-block AES tail
// for a /8, the slab's tails run eight blocks at a time through the
// AES-NI kernel where the CPU has one) and are inserted nowhere.
func (t *Telescope) slabMapper(shard int) engine.SlabMapper {
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

// CaptureWindowEngine reads from src until nv valid packets are
// collected (or the stream ends) and assembles the anonymized window
// matrix through the sharded streaming engine, with backpressure-bounded
// memory and context cancellation. The number of packets in the matrix
// equals the number accepted — NV is conserved through anonymization and
// hierarchical assembly — and every worker count yields the same Window
// up to Leaves: the matrix is a sum of the same anonymized triples, only
// leaf boundaries differ.
func (t *Telescope) CaptureWindowEngine(ctx context.Context, src PacketSource, nv, workers, batch int) (*Window, error) {
	eng, err := t.engineFor(workers, batch)
	if err != nil {
		return nil, err
	}
	ew, err := eng.CaptureWindow(ctx, src, nv)
	if err != nil {
		return nil, err
	}
	return &Window{
		Start: ew.Start, End: ew.End,
		NV: ew.NV, Dropped: ew.Dropped, Leaves: ew.Leaves,
		Matrix: ew.Matrix, Timings: ew.Timings,
	}, nil
}
