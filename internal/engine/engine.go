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
// # Flow control: one credit rule
//
// The validity filter runs inside the shard workers, not on the reader
// goroutine, and the reader runs ahead of them through a ring of
// ringDepth slabs with no barrier between slabs — yet a filtered window
// is byte-identical to what a per-packet loop over the same stream
// would cut, and the source is left at the same packet. One rule makes
// that hold:
//
//	The reader holds nv - NV credits. Reading a slab spends len(slab)
//	of them; retiring the oldest slab in flight refunds the packets its
//	filter dropped. A full slab (Batch x Workers packets) is issued
//	whenever the credits cover one and the ring has room, a short one
//	(exactly the credits left) only when nothing is in flight.
//
// So NV + (raw packets in flight) + credits = nv at every step: raw
// packets in flight never exceed what the window can still accept, the
// window can only reach nv by retiring a last slab that was accepted in
// full with no credit left — the nv-th accepted packet is the last raw
// packet read, the consumed stream prefix equals a per-packet loop's,
// and a dropped packet can never shift a window boundary (multi-window
// captures over one shared source cut identical boundaries). Slabs
// retire in the order they were read and each slab's chunk accounting
// is merged in chunk (= stream) order, so Start/End/NV/Dropped are
// computed in exactly the order a per-packet loop would have seen the
// packets; chunk i of every slab goes to shard i, so the leaf and drop
// accounting is reproducible.
//
// Memory in flight is bounded by ringDepth x Batch x Workers packets
// (slab buffers are taken from a pool as slabs are issued, so a window
// smaller than one slab holds one buffer); ringDepth is a constant, not
// a knob.
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
// concurrent use.
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

// Normalized resolves the defaults into concrete values: Workers <= 0
// is GOMAXPROCS at the time of the call, Batch <= 0 is LeafSize.
func (c Config) Normalized() Config {
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
	slabPool sync.Pool // the reader's ring buffers (Batch x Workers packets)
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
	cfg = cfg.Normalized()
	e := &Engine{cfg: cfg, filter: filter, factory: factory}
	e.slabPool.New = func() interface{} {
		s := make([]pcap.Packet, cfg.Batch*cfg.Workers)
		return &s
	}
	e.pairPool.New = func() interface{} {
		s := make([]Pair, cfg.Batch)
		return &s
	}
	e.accPool.New = func() interface{} {
		return hypersparse.NewAccumulator(cfg.LeafSize)
	}
	return e, nil
}

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
	Timings    Timings
}

// Timings says where a capture's wall time went. It is always recorded:
// the reader reads the clock around each slab read and each wait, a
// shard twice per chunk. Per shard, Busy + Wait runs from the start of
// the capture until the shard sees the slab loop end (Total - Merge, to
// within the wake-up), so it never exceeds Total.
type Timings struct {
	Total      time.Duration   // CaptureWindow, entry to return
	Read       time.Duration   // reader inside Source.NextBatch
	ReaderWait time.Duration   // reader blocked on the oldest slab in flight
	ShardBusy  []time.Duration // per shard: filtering, mapping and accumulating chunks
	ShardWait  []time.Duration // per shard: idle, waiting for a chunk
	Merge      time.Duration   // end of the slab loop to return: shard leaf sums, then the sum of shards
}

// ringDepth is how many slabs the reader may have in flight: two keep
// the shards fed while a third is read. In-flight memory is at most
// ringDepth x Batch x Workers packets; a deeper ring measured no
// faster (4) or slower (8: the slabs in flight outgrow the cache).
const ringDepth = 3

// slab is one ring entry: a raw read split into at most one chunk per
// shard worker.
type slab struct {
	buf    *[]pcap.Packet
	n      int            // raw packets read
	chunks []chunkResult  // one per dispatched chunk, in stream order
	done   sync.WaitGroup // released once per chunk
}

// chunkTask is one contiguous span of a slab handed to a shard worker:
// filter, map, accumulate, report into res, then release the slab.
type chunkTask struct {
	pkts []pcap.Packet
	res  *chunkResult
	done *sync.WaitGroup
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
	shard      int
	matrix     *hypersparse.Matrix
	leaves     int
	drops      int
	busy, wait time.Duration
}

// CaptureWindow reads from src until nv accepted packets are collected
// (or the stream ends), building the window matrix with the configured
// shard count: the caller's goroutine reads raw slabs into a ring under
// the credit rule of the package comment and splits each into Workers
// chunks; the shard workers filter, map, and accumulate their chunks in
// parallel (per-shard drop counters, merged after the capture) and meet
// the reader only when it retires the oldest slab. The capture stops
// early with ctx.Err() when ctx is cancelled — polled once per slab
// issued or retired, so an abandoned capture stops within one slab's
// work even when the filter rejects everything — and no goroutines
// outlive the call.
func (e *Engine) CaptureWindow(ctx context.Context, src Source, nv int) (*Window, error) {
	if nv <= 0 {
		return nil, fmt.Errorf("engine: window size must be positive, got %d", nv)
	}
	began := time.Now()
	workers := e.cfg.Workers
	// One task channel per worker: chunk i of every slab goes to shard
	// worker i. The deterministic assignment makes leaf and drop
	// accounting reproducible across runs (channel scheduling can no
	// longer shuffle chunks between shards), which is what lets the
	// differential tests compare sharded windows field for field. A
	// channel holds one chunk per slab in flight, so dispatch never
	// blocks.
	tasks := make([]chan chunkTask, workers)
	results := make(chan shardResult, workers)
	var workerWG sync.WaitGroup
	for i := 0; i < workers; i++ {
		tasks[i] = make(chan chunkTask, ringDepth)
		workerWG.Add(1)
		go func(shard int) {
			defer workerWG.Done()
			e.shardWorker(ctx, shard, began, tasks[shard], results)
		}(i)
	}

	w := &Window{}
	tm := &w.Timings
	var ring [ringDepth]slab
	chunks := make([]chunkResult, ringDepth*workers)
	for i := range ring {
		ring[i].chunks = chunks[i*workers : i*workers : (i+1)*workers]
	}
	slabCap := e.cfg.Batch * workers
	credits := nv          // nv - NV - raw packets in flight
	head, inFlight := 0, 0 // ring[head%ringDepth] is the oldest slab in flight
	dry := false           // the source returned 0
	var readErr error
	for {
		if readErr = ctx.Err(); readErr != nil {
			break
		}
		want := 0
		switch {
		case dry:
		case credits >= slabCap && inFlight < ringDepth:
			want = slabCap
		case inFlight == 0:
			want = credits // a short slab; 0 once the window is full
		}
		if want > 0 {
			s := &ring[(head+inFlight)%ringDepth]
			s.buf = e.slabPool.Get().(*[]pcap.Packet)
			t0 := time.Now()
			s.n = src.NextBatch((*s.buf)[:want])
			tm.Read += time.Since(t0)
			if s.n == 0 {
				e.slabPool.Put(s.buf)
				dry = true
				continue
			}
			credits -= s.n
			inFlight++
			// At most one chunk per worker.
			pkts := (*s.buf)[:s.n]
			per := (s.n + workers - 1) / workers
			s.chunks = s.chunks[:0]
			for off := 0; off < s.n; off += per {
				i := len(s.chunks)
				s.chunks = append(s.chunks, chunkResult{})
				s.done.Add(1)
				tasks[i] <- chunkTask{pkts: pkts[off:min(off+per, s.n)], res: &s.chunks[i], done: &s.done}
			}
			continue
		}
		if inFlight == 0 {
			break // window full, or stream dry
		}
		// Retire the oldest slab: merge its chunk accounting in stream
		// order and refund what its filter dropped.
		s := &ring[head%ringDepth]
		t0 := time.Now()
		s.done.Wait()
		tm.ReaderWait += time.Since(t0)
		e.slabPool.Put(s.buf)
		credits += s.n
		for i := range s.chunks {
			r := &s.chunks[i]
			if r.accepted > 0 {
				if w.NV == 0 {
					w.Start = r.first
				}
				w.End = r.last
				w.NV += r.accepted
				credits -= r.accepted
			}
		}
		head++
		inFlight--
	}
	loopEnd := time.Now()
	for i := range tasks {
		close(tasks[i])
	}
	workerWG.Wait()
	close(results)
	// Only a cancelled capture leaves slabs in flight; the workers are
	// gone, so their buffers can go back.
	for ; inFlight > 0; inFlight-- {
		e.slabPool.Put(ring[head%ringDepth].buf)
		head++
	}

	if readErr == nil {
		// A shard that saw the cancellation discarded its leaves.
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
	tm.ShardBusy = make([]time.Duration, workers)
	tm.ShardWait = make([]time.Duration, workers)
	for r := range results {
		w.ShardDrops[r.shard] = r.drops
		w.Dropped += r.drops
		tm.ShardBusy[r.shard], tm.ShardWait[r.shard] = r.busy, r.wait
		if r.leaves == 0 {
			continue
		}
		w.Leaves += r.leaves
		w.Shards++
		shardMats = append(shardMats, r.matrix)
	}
	w.Matrix = hypersparse.HierSum(shardMats, workers)
	end := time.Now()
	tm.Merge, tm.Total = end.Sub(loopEnd), end.Sub(began)
	return w, nil
}

// shardWorker drains chunk tasks: filter its chunk (counting drops into
// the per-shard counter), compact the survivors, map them to
// coordinates through the per-worker slab mapper, and accumulate leaf
// matrices; then reduce its leaves and report one shard matrix. On
// cancellation it stops doing work but keeps releasing slabs so the
// reader never deadlocks.
func (e *Engine) shardWorker(ctx context.Context, shard int, began time.Time, tasks <-chan chunkTask, results chan<- shardResult) {
	acc := e.getAcc()
	defer e.accPool.Put(acc)
	mapper := e.factory(shard)
	pairsBuf := e.getPairs()
	pairs := *pairsBuf
	drops := 0
	var busy, wait time.Duration
	idle := began // when this shard last ran out of work
	for t := range tasks {
		if ctx.Err() != nil {
			t.done.Done() // abandoned: release the slab, contribute nothing
			continue
		}
		start := time.Now()
		wait += start.Sub(idle)
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
				acc.Add(p.Row, p.Col)
			}
		}
		idle = time.Now()
		busy += idle.Sub(start)
		t.done.Done()
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
	wait += time.Since(idle)
	leaves := acc.Leaves()
	results <- shardResult{shard: shard, matrix: acc.Finish(), leaves: leaves, drops: drops, busy: busy, wait: wait}
}

// getAcc takes a pooled shard accumulator; accumulators return to the
// pool already reset (Finish resets), retaining their builder buffers
// so repeated windows allocate nothing for leaf assembly.
func (e *Engine) getAcc() *hypersparse.Accumulator {
	return e.accPool.Get().(*hypersparse.Accumulator)
}

func (e *Engine) getPairs() *[]Pair {
	return e.pairPool.Get().(*[]Pair)
}

func (e *Engine) putPairs(b *[]Pair) {
	e.pairPool.Put(b)
}
