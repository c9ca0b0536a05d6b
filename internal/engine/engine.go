// Package engine implements the sharded, streaming window build at the
// heart of the pipeline: packet sources (the telescope synthesizer, pcap
// readers) feed raw packet slabs to N shard workers — each filtering,
// mapping, and accumulating hypersparse leaf matrices of LeafSize
// entries — and a hierarchical merge tree reduces the shards into one
// per-window matrix.
//
// The engine is the parallel counterpart of the paper's construction:
// NV = 2^17-packet leaves are built independently and hierarchically
// summed into a 2^30-packet window. Because matrix addition is
// commutative and associative, every shard count produces exactly the
// same matrix — only the leaf boundaries differ. There is one capture
// loop: Workers=1 is one shard of it, not a second implementation.
//
// # Filter timestamp-parity rule
//
// The validity filter runs inside the shard workers, not on the reader
// goroutine, yet a filtered window is byte-identical to what a
// per-packet loop over the same stream would cut. Two rules make that
// hold:
//
//  1. Slab cap: every slab read is capped at the number of accepted
//     packets the window still needs (nv - NV). Accepted <= raw, so the
//     window can only reach nv on a slab that was accepted in full —
//     the nv-th accepted packet is always the last raw packet of its
//     slab, the consumed stream prefix equals a per-packet loop's,
//     and a dropped packet can never shift a window boundary.
//  2. Ordered merge: workers filter disjoint chunks of one slab behind
//     a per-slab barrier and report per-chunk accept counts and
//     first/last accepted timestamps; the reader merges those in chunk
//     (= stream) order, so Start/End/NV/Dropped are computed in exactly
//     the order a per-packet loop would have seen the packets.
//
// The reader overlaps I/O with the barrier: while workers chew slab k
// it speculatively reads up to nv - NV - len(slab k) further packets —
// at least that many are still needed even if slab k is accepted in
// full, so speculation never consumes a packet a per-packet loop would
// have left in the source (multi-window captures over one shared source
// cut identical boundaries).
package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/hypersparse"
	"repro/internal/pcap"
)

// Source yields packets in time order, a slab per call: NextBatch fills
// dst from the front and returns how many packets it produced; 0 means
// the stream is exhausted. Calls with different len(dst) must yield the
// same packets in the same order — only the slab boundaries move — so
// the reader is free to cap each slab at the number of packets the
// window still needs (see the timestamp-parity rule above) and a
// capture never consumes a packet a per-packet loop would have left in
// the source.
type Source interface {
	NextBatch(dst []pcap.Packet) int
}

// Errorer is optionally implemented by sources that can fail mid-stream
// (e.g. a pcap reader hitting a truncated file). The engine checks it
// after the stream ends and surfaces the error.
type Errorer interface {
	Err() error
}

// Filter reports whether a packet belongs in the window (the telescope's
// validity filter). It is compiled/constructed once per engine and
// evaluated concurrently on the shard workers — it must be safe for
// concurrent use (pcap.Filter's compiled closures are).
type Filter func(*pcap.Packet) bool

// Pair is one accepted packet reduced to its matrix coordinates.
type Pair struct {
	Row, Col uint32
}

// SlabMapper converts a slab of accepted packets to matrix coordinates:
// dst[i] must receive pkts[i]'s pair, for all i (len(dst) >= len(pkts));
// CryptoPAN anonymization lives here. Slab granularity lets the mapper
// batch its own internals — the telescope anonymizes a whole slab of
// addresses through one batched CryptoPAN call instead of two scalar
// calls per packet.
type SlabMapper func(pkts []pcap.Packet, dst []Pair)

// SlabMapperFactory builds one SlabMapper per shard worker for each
// capture. Each returned mapper is only ever called from its own worker
// goroutine, so it may keep unsynchronized per-worker state (the
// telescope hangs a lock-free L1 anonymization memo here). Every mapper
// produced by one factory must compute the same per-packet function.
type SlabMapperFactory func(shard int) SlabMapper

// Config parameterizes an Engine.
type Config struct {
	// Workers is the shard-worker count; <= 0 uses GOMAXPROCS.
	Workers int
	// LeafSize is the number of entries per leaf matrix (the paper's
	// leaf NV is 2^17).
	LeafSize int
	// Batch is the per-worker chunk granularity: a slab holds up
	// to Batch x Workers raw packets and is split into Workers chunks of
	// at most Batch packets; 0 defaults to LeafSize so one chunk can
	// fill one leaf.
	Batch int
}

// normalized resolves defaults into concrete values.
func (c Config) normalized() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Batch <= 0 {
		c.Batch = c.LeafSize
	}
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.LeafSize <= 0 {
		return fmt.Errorf("engine: LeafSize must be positive, got %d", c.LeafSize)
	}
	return nil
}

// Engine is a configured, reusable window builder. Construct with New.
type Engine struct {
	cfg      Config
	filter   Filter
	factory  SlabMapperFactory
	slabPool sync.Pool // the reader's double buffers (Batch x Workers packets)
	pairPool sync.Pool // per-worker coordinate slabs (Batch pairs)
	accPool  sync.Pool // shard accumulators, retained across windows
}

// New builds an Engine whose shard workers each take their own
// SlabMapper from factory at the start of every capture. A nil filter
// accepts every packet.
func New(cfg Config, filter Filter, factory SlabMapperFactory) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if factory == nil {
		return nil, fmt.Errorf("engine: mapper factory required")
	}
	if filter == nil {
		filter = func(*pcap.Packet) bool { return true }
	}
	cfg = cfg.normalized()
	e := &Engine{cfg: cfg, filter: filter, factory: factory}
	e.slabPool.New = func() interface{} {
		s := make([]pcap.Packet, 0, cfg.Batch*cfg.Workers)
		return &s
	}
	e.pairPool.New = func() interface{} {
		s := make([]Pair, cfg.Batch)
		return &s
	}
	e.accPool.New = func() interface{} {
		return hypersparse.NewAccumulator(cfg.LeafSize, 1)
	}
	return e, nil
}

// Config returns the normalized configuration.
func (e *Engine) Config() Config { return e.cfg }

// Window is one constant-packet capture: the merged matrix plus the
// stream accounting the telescope records in Table I.
type Window struct {
	Start, End time.Time
	NV         int // valid packets in the matrix
	Dropped    int // packets rejected by the filter
	Leaves     int // leaf matrices cut across all shards
	Shards     int // shard workers that contributed leaves; 0 for an empty capture
	// ShardDrops is the filter's per-shard drop accounting (index =
	// shard worker). The distribution across shards depends on which
	// worker filtered which chunk, but the sum always equals Dropped,
	// which is the same at every shard count.
	ShardDrops []int
	Matrix     *hypersparse.Matrix
}

// Duration returns the wall-clock span of the window.
func (w *Window) Duration() time.Duration { return w.End.Sub(w.Start) }

// chunkTask is one contiguous span of the current slab handed to a
// shard worker: filter, map, accumulate, report into res, then release
// the slab barrier.
type chunkTask struct {
	pkts []pcap.Packet
	res  *chunkResult
	wg   *sync.WaitGroup
}

// chunkResult is what the reader needs to merge a chunk's stream
// accounting in order: how many packets survived the filter and the
// timestamps of the first and last survivors.
type chunkResult struct {
	accepted    int
	first, last time.Time
}

// shardResult is one worker's contribution to the merge tree.
type shardResult struct {
	shard  int
	matrix *hypersparse.Matrix
	leaves int
	drops  int
}

// CaptureWindow reads from src until nv accepted packets are collected
// (or the stream ends), building the window matrix with the configured
// shard count: the caller's goroutine reads raw slabs and splits each
// into Workers chunks behind a per-slab barrier; the shard workers
// filter, map, and accumulate their chunks in parallel (per-shard drop
// counters, merged after the capture), while the reader speculatively
// pre-reads the next slab. See the package comment for the parity
// argument. The capture stops early with ctx.Err() when ctx is
// cancelled — polled once per slab, so an abandoned capture stops
// within one slab's work even when the filter rejects everything — and
// no goroutines outlive the call.
func (e *Engine) CaptureWindow(ctx context.Context, src Source, nv int) (*Window, error) {
	if nv <= 0 {
		return nil, fmt.Errorf("engine: window size must be positive, got %d", nv)
	}
	workers := e.cfg.Workers
	// One task channel per worker: chunk i of every slab goes to shard
	// worker i. The deterministic assignment makes leaf and drop
	// accounting reproducible across runs (channel scheduling can no
	// longer shuffle chunks between shards), which is what lets the
	// differential tests compare sharded windows field for field.
	tasks := make([]chan chunkTask, workers)
	results := make(chan shardResult, workers)
	var workerWG sync.WaitGroup
	for i := 0; i < workers; i++ {
		tasks[i] = make(chan chunkTask, 1)
		workerWG.Add(1)
		go func(shard int) {
			defer workerWG.Done()
			e.shardWorker(ctx, shard, tasks[shard], results)
		}(i)
	}

	w := &Window{}
	curBuf, nextBuf := e.getSlab(), e.getSlab()
	defer e.putSlab(curBuf)
	defer e.putSlab(nextBuf)
	cur, next := (*curBuf)[:cap(*curBuf)], (*nextBuf)[:cap(*nextBuf)]
	chunks := make([]chunkResult, workers)
	var barrier sync.WaitGroup
	var readErr error

	curN := 0
	{
		want := nv
		if want > len(cur) {
			want = len(cur)
		}
		curN = src.NextBatch(cur[:want])
	}
	for curN > 0 {
		if err := ctx.Err(); err != nil {
			readErr = err
			break
		}
		// Split the slab into at most one chunk per worker. Each task
		// channel holds one entry and is empty here (the previous barrier
		// drained it), so dispatch never blocks.
		per := (curN + workers - 1) / workers
		nchunks := 0
		for off := 0; off < curN; off += per {
			end := off + per
			if end > curN {
				end = curN
			}
			chunks[nchunks] = chunkResult{}
			barrier.Add(1)
			tasks[nchunks] <- chunkTask{pkts: cur[off:end], res: &chunks[nchunks], wg: &barrier}
			nchunks++
		}
		// Speculative read-ahead, overlapped with the workers: even if
		// the in-flight slab is accepted in full the window still needs
		// nv - NV - curN more packets, so reading that many can never
		// overrun a per-packet loop's consumed prefix. spec > 0 only when
		// the window cannot complete on the in-flight slab.
		spec := nv - w.NV - curN
		if spec > len(next) {
			spec = len(next)
		}
		nextN := 0
		specDone := spec > 0
		if specDone {
			nextN = src.NextBatch(next[:spec])
		}
		barrier.Wait()
		// Merge chunk accounting in stream order (parity rule 2).
		for i := 0; i < nchunks; i++ {
			r := &chunks[i]
			if r.accepted > 0 {
				if w.NV == 0 {
					w.Start = r.first
				}
				w.End = r.last
				w.NV += r.accepted
			}
		}
		if w.NV >= nv {
			break
		}
		if specDone {
			if nextN == 0 {
				break // stream ran dry during the speculative read
			}
			cur, next = next, cur
			curN = nextN
			continue
		}
		// No speculation was possible (the slab could have completed the
		// window but didn't): read synchronously with the exact cap.
		want := nv - w.NV
		if want > len(cur) {
			want = len(cur)
		}
		curN = src.NextBatch(cur[:want])
	}
	for i := range tasks {
		close(tasks[i])
	}
	workerWG.Wait()
	close(results)

	if readErr == nil {
		readErr = ctx.Err()
	}
	if es, ok := src.(Errorer); ok && readErr == nil {
		readErr = es.Err()
	}
	if readErr != nil {
		// Drain results so shard matrices are released before returning.
		for range results {
		}
		return nil, readErr
	}

	shardMats := make([]*hypersparse.Matrix, 0, workers)
	w.ShardDrops = make([]int, workers)
	for r := range results {
		w.ShardDrops[r.shard] = r.drops
		w.Dropped += r.drops
		if r.leaves == 0 {
			continue
		}
		w.Leaves += r.leaves
		w.Shards++
		shardMats = append(shardMats, r.matrix)
	}
	w.Matrix = hypersparse.HierSum(shardMats, workers)
	return w, nil
}

// shardWorker drains chunk tasks: filter its chunk (counting drops into
// the per-shard counter), compact the survivors, map them to
// coordinates through the per-worker slab mapper, and accumulate leaf
// matrices; then reduce its leaves and report one shard matrix. On
// cancellation it stops doing work but keeps releasing barriers so the
// reader never deadlocks.
func (e *Engine) shardWorker(ctx context.Context, shard int, tasks <-chan chunkTask, results chan<- shardResult) {
	acc := e.getAcc()
	defer e.accPool.Put(acc)
	mapper := e.factory(shard)
	pairsBuf := e.getPairs()
	pairs := *pairsBuf
	drops := 0
	ingested := 0
	for t := range tasks {
		if ctx.Err() != nil {
			t.wg.Done() // abandoned: release the barrier, contribute nothing
			continue
		}
		pkts := t.pkts
		kept := 0
		for i := range pkts {
			p := &pkts[i]
			if !e.filter(p) {
				drops++
				continue
			}
			if kept == 0 {
				t.res.first = p.Time
			}
			t.res.last = p.Time
			if kept != i {
				pkts[kept] = *p
			}
			kept++
		}
		t.res.accepted = kept
		if kept > 0 {
			mapper(pkts[:kept], pairs[:kept])
			for _, p := range pairs[:kept] {
				acc.Add(p.Row, p.Col, 1)
			}
			ingested += kept
		}
		t.wg.Done()
	}
	*pairsBuf = pairs
	e.putPairs(pairsBuf)
	if ctx.Err() != nil {
		// The capture is abandoned and the result will be drained unread:
		// skip the merge entirely.
		acc.Discard()
		results <- shardResult{shard: shard}
		return
	}
	leaves := acc.Leaves()
	if ingested%e.cfg.LeafSize != 0 {
		leaves++ // partial tail leaf
	}
	results <- shardResult{shard: shard, matrix: acc.Finish(), leaves: leaves, drops: drops}
}

// getAcc takes a pooled shard accumulator; accumulators return to the
// pool already reset (Finish resets), retaining their builder buffers
// so repeated windows allocate nothing for leaf assembly.
func (e *Engine) getAcc() *hypersparse.Accumulator {
	return e.accPool.Get().(*hypersparse.Accumulator)
}

func (e *Engine) getSlab() *[]pcap.Packet {
	b := e.slabPool.Get().(*[]pcap.Packet)
	*b = (*b)[:0]
	return b
}

func (e *Engine) putSlab(b *[]pcap.Packet) {
	e.slabPool.Put(b)
}

func (e *Engine) getPairs() *[]Pair {
	return e.pairPool.Get().(*[]Pair)
}

func (e *Engine) putPairs(b *[]Pair) {
	e.pairPool.Put(b)
}
