package engine

// reference_test.go holds what the one capture loop is diffed against:
// a naive per-packet capture that shares no code with it. With a single
// kernel behind every shard count, "N shards == 1 shard" proves only
// shard-independence; equality with this loop is what proves the window
// is right.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/hypersparse"
	"repro/internal/ipaddr"
	"repro/internal/pcap"
)

// perPacket is the shape of the test suite's hand-written sources: one
// packet per call, false when the stream is exhausted.
type perPacket interface {
	Next(*pcap.Packet) bool
}

// slabs lifts a per-packet test source to the engine's Source by
// repeated Next calls, forwarding the source's held-back error if it
// has one.
type slabs struct{ src perPacket }

func (s slabs) NextBatch(dst []pcap.Packet) int {
	n := 0
	for n < len(dst) && s.src.Next(&dst[n]) {
		n++
	}
	return n
}

func (s slabs) Err() error {
	if e, ok := s.src.(Errorer); ok {
		return e.Err()
	}
	return nil
}

// identity maps a packet to its raw (source, destination) coordinates.
func identity(p *pcap.Packet) Pair { return Pair{Row: uint32(p.Src), Col: uint32(p.Dst)} }

// perShard lifts a per-packet coordinate function to the factory the
// engine takes.
func perShard(pair func(*pcap.Packet) Pair) SlabMapperFactory {
	return func(int) SlabMapper {
		return func(pkts []pcap.Packet, dst []Pair) {
			for i := range pkts {
				dst[i] = pair(&pkts[i])
			}
		}
	}
}

// refWindow is the naive capture's result: the stream accounting plus
// the matrix as sorted triples.
type refWindow struct {
	Start, End  time.Time
	NV, Dropped int
	Entries     []hypersparse.Entry
}

// referenceWindow reads src one packet at a time until nv are accepted:
// filter, map, count into a hash map keyed by the packed coordinates.
func referenceWindow(src perPacket, filter Filter, pair func(*pcap.Packet) Pair, nv int) refWindow {
	cells := make(map[uint64]float64)
	var w refWindow
	var p pcap.Packet
	for w.NV < nv && src.Next(&p) {
		if filter != nil && !filter(&p) {
			w.Dropped++
			continue
		}
		if w.NV == 0 {
			w.Start = p.Time
		}
		w.End = p.Time
		c := pair(&p)
		cells[uint64(c.Row)<<32|uint64(c.Col)]++
		w.NV++
	}
	keys := make([]uint64, 0, len(cells))
	for k := range cells {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		w.Entries = append(w.Entries, hypersparse.Entry{Row: uint32(k >> 32), Col: uint32(k), Val: cells[k]})
	}
	return w
}

// diffWindow reports the first field in which an engine window departs
// from the reference: accounting, drop distribution, leaf bounds, every
// matrix entry.
func diffWindow(got *Window, want refWindow, cfg Config) error {
	if got.NV != want.NV || got.Dropped != want.Dropped {
		return fmt.Errorf("NV/Dropped %d/%d, want %d/%d", got.NV, got.Dropped, want.NV, want.Dropped)
	}
	if !got.Start.Equal(want.Start) || !got.End.Equal(want.End) {
		return fmt.Errorf("span [%v, %v], want [%v, %v]", got.Start, got.End, want.Start, want.End)
	}
	if len(got.ShardDrops) != cfg.Workers {
		return fmt.Errorf("ShardDrops has %d shards, want %d", len(got.ShardDrops), cfg.Workers)
	}
	if sum := sumDrops(got.ShardDrops); sum != want.Dropped {
		return fmt.Errorf("ShardDrops %v sums to %d, want %d", got.ShardDrops, sum, want.Dropped)
	}
	minLeaves := (want.NV + cfg.LeafSize - 1) / cfg.LeafSize
	if got.Leaves < minLeaves || got.Leaves > minLeaves+cfg.Workers-1 {
		return fmt.Errorf("Leaves = %d, want in [%d, %d]", got.Leaves, minLeaves, minLeaves+cfg.Workers-1)
	}
	if got.Shards > cfg.Workers || (got.Shards == 0) != (want.NV == 0) {
		return fmt.Errorf("Shards = %d with NV %d and %d workers", got.Shards, want.NV, cfg.Workers)
	}
	entries := got.Matrix.Entries()
	if len(entries) != len(want.Entries) {
		return fmt.Errorf("NNZ %d, want %d", len(entries), len(want.Entries))
	}
	for i := range entries {
		if entries[i] != want.Entries[i] {
			return fmt.Errorf("entry %d = %+v, want %+v", i, entries[i], want.Entries[i])
		}
	}
	return nil
}

func sumDrops(drops []int) int {
	n := 0
	for _, d := range drops {
		n += d
	}
	return n
}

// scriptSource replays a fixed packet list, so a fuzz input decides
// every packet the capture sees.
type scriptSource struct {
	pkts []pcap.Packet
	i    int
}

func (s *scriptSource) Next(p *pcap.Packet) bool {
	if s.i == len(s.pkts) {
		return false
	}
	*p = s.pkts[s.i]
	s.i++
	return true
}

// rejectMark in a scripted packet's Length makes scriptFilter reject it
// whatever its addresses: how a script places drops by stream position
// while the filter stays a function of the packet alone.
const rejectMark = 1

// scriptStream builds the fuzz target's deterministic stream: few
// sources and destinations (duplicate cells, heavy rows), and on top of
// the content-keyed drops of scriptFilter a position-keyed pattern —
// 1: a rejected run one slab longer than the ring, starting a quarter
// of the way in (refunds arrive only after the whole ring has drained);
// 2: the first half all rejected, then accepted; 3: every other packet
// rejected (every slab in flight refunds half of itself).
func scriptStream(streamLen int, seed int64, pattern, slabCap int) []pcap.Packet {
	pkts := make([]pcap.Packet, streamLen)
	x := uint64(seed)
	for i := range pkts {
		x = x*6364136223846793005 + 1442695040888963407
		pkts[i] = pcap.Packet{
			Time: time.Unix(int64(i), 0),
			Src:  ipaddr.Addr((x >> 40) % 97),
			Dst:  ipaddr.Addr((x >> 20) % 1021),
		}
		var reject bool
		switch pattern {
		case 1:
			reject = i >= streamLen/4 && i < streamLen/4+(ringDepth+1)*slabCap
		case 2:
			reject = i < streamLen/2
		case 3:
			reject = i%2 == 0
		}
		if reject {
			pkts[i].Length = rejectMark
		}
	}
	return pkts
}

// scriptFilter rejects marked packets and, for dropMod k > 1, roughly
// one unmarked packet in k by content; 1 rejects everything, 0 keeps
// every unmarked packet.
func scriptFilter(dropMod int) Filter {
	return func(p *pcap.Packet) bool {
		if p.Length == rejectMark || dropMod == 1 {
			return false
		}
		return dropMod == 0 || (uint32(p.Src)*2654435761>>7)%uint32(dropMod) != 0
	}
}

// diffWindows cuts windows consecutive nv-packet windows of pkts with e
// and with the naive reference, each from its own shared source, and
// returns the first difference: a window's fields, or the packet either
// source was left at.
func diffWindows(e *Engine, pkts []pcap.Packet, filter Filter, nv, windows int) error {
	engSrc, refSrc := &scriptSource{pkts: pkts}, &scriptSource{pkts: pkts}
	for window := 0; window < windows; window++ {
		got, err := e.CaptureWindow(context.Background(), slabs{engSrc}, nv)
		if err != nil {
			return err
		}
		if err := diffWindow(got, referenceWindow(refSrc, filter, identity, nv), e.cfg); err != nil {
			return fmt.Errorf("window %d: %w", window, err)
		}
		if engSrc.i != refSrc.i {
			return fmt.Errorf("window %d: engine consumed %d packets, reference %d", window, engSrc.i, refSrc.i)
		}
	}
	return nil
}

// FuzzCaptureMatchesReference drives the one capture loop across shard
// counts, slab sizes, leaf sizes, window sizes, drop patterns (by
// content and by position, see scriptStream) and streams shorter than
// the window, and requires three consecutive windows over one shared
// source to equal the naive reference's — which also pins that each
// window consumed exactly the reference's prefix. The seeds are the
// shapes of the parity tables in engine_test.go and
// filter_parity_test.go.
func FuzzCaptureMatchesReference(f *testing.F) {
	f.Add(uint8(1), uint8(0), uint8(9), uint16(1<<13), uint8(0), uint16(1<<14), int64(7))    // TestShardedMatchesReference
	f.Add(uint8(4), uint8(1), uint8(9), uint16(4096), uint8(0), uint16(1<<14), int64(11))    // leaf accounting, batch 7
	f.Add(uint8(3), uint8(2), uint8(8), uint16(1<<12), uint8(7), uint16(1<<14), int64(41))   // drop-heavy parity sweep
	f.Add(uint8(8), uint8(3), uint8(7), uint16(1<<10), uint8(7), uint16(1<<13), int64(43))   // multi-window, batch 3·leaf
	f.Add(uint8(4), uint8(2), uint8(8), uint16(1<<15), uint8(3), uint16(900), int64(3))      // short stream
	f.Add(uint8(2), uint8(0), uint8(4), uint16(1), uint8(1), uint16(500), int64(5))          // all rejected, nv 1
	f.Add(uint8(1), uint8(2), uint8(6), uint16(300), uint8(0), uint16(0), int64(1))          // empty stream
	f.Add(uint8(8), uint8(1), uint8(5), uint16(64), uint8(2), uint16(1<<12), int64(0x5eed5)) // tiny leaves
	// The ring (TestRingRefunds): slabs of 8 to 28 packets under windows
	// that hold many of them.
	f.Add(uint8(3), uint8(1), uint8(6), uint16(2000), uint8(3<<6), uint16(1<<14), int64(13))  // half of every slab in flight refunded
	f.Add(uint8(1), uint8(1), uint8(6), uint16(1500), uint8(1<<6), uint16(1<<13), int64(17))  // a rejected run longer than the ring
	f.Add(uint8(7), uint8(0), uint8(5), uint16(700), uint8(2<<6|5), uint16(1<<12), int64(19)) // all rejected, then accepted
	f.Add(uint8(3), uint8(1), uint8(7), uint16(8000), uint8(3<<6|2), uint16(100), int64(23))  // the stream ends inside the ring
	f.Add(uint8(1), uint8(1), uint8(3), uint16(8191), uint8(0), uint16(3*8192+50), int64(29)) // nothing dropped: no refund, only short slabs finish a window
	f.Fuzz(func(t *testing.T, workers, batchSel, leafLog2 uint8, nv uint16, drops uint8, streamLen uint16, seed int64) {
		cfg := Config{Workers: int(workers%8) + 1, LeafSize: 1 << (leafLog2 % 10)}
		cfg.Batch = []int{1, 7, cfg.LeafSize, 3 * cfg.LeafSize}[batchSel%4]
		want := int(nv)%(1<<13) + 1
		// The low six bits of drops are scriptFilter's dropMod, the high
		// two scriptStream's pattern.
		filter := scriptFilter(int(drops & 63))
		pkts := scriptStream(int(streamLen), seed, int(drops>>6), cfg.Batch*cfg.Workers)
		e, err := New(cfg, filter, perShard(identity))
		if err != nil {
			t.Fatal(err)
		}
		if err := diffWindows(e, pkts, filter, want, 3); err != nil {
			t.Fatalf("%+v nv=%d drops=%#x stream=%d: %v", cfg, want, drops, streamLen, err)
		}
	})
}

// stallUntilCancelled cancels a capture with the whole ring in flight:
// its filter holds every shard on its first packet until the source,
// asked for the slab that fills the ring, cancels the capture.
type stallUntilCancelled struct {
	infiniteSource
	ctx    context.Context
	cancel context.CancelFunc
	calls  int
}

func (s *stallUntilCancelled) NextBatch(dst []pcap.Packet) int {
	if s.calls++; s.calls == ringDepth {
		s.cancel()
	}
	return slabs{&s.infiniteSource}.NextBatch(dst)
}

func (s *stallUntilCancelled) filter(*pcap.Packet) bool {
	<-s.ctx.Done()
	return true
}

// TestNoGoroutineLeak: every shard count starts goroutines now, one
// included, so after a completed, a cancelled (also with a filter that
// rejects an endless stream, and with every slab of the ring in flight)
// and a failed capture the goroutine count must return to where it
// started.
func TestNoGoroutineLeak(t *testing.T) {
	reject := func(*pcap.Packet) bool { return false }
	before := runtime.NumGoroutine()
	for _, workers := range []int{1, 4} {
		run := func(filter Filter, src perPacket, nv int, timeout time.Duration, wantErr error) {
			t.Helper()
			e, err := New(Config{Workers: workers, LeafSize: 64}, filter, perShard(identity))
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), timeout)
			defer cancel()
			if _, err := e.CaptureWindow(ctx, slabs{src}, nv); !errors.Is(err, wantErr) {
				t.Errorf("workers=%d: err = %v, want %v", workers, err, wantErr)
			}
		}
		run(nil, &infiniteSource{}, 1000, time.Minute, nil)
		run(nil, &infiniteSource{}, 1<<30, 10*time.Millisecond, context.DeadlineExceeded)
		run(reject, &infiniteSource{}, 1, 10*time.Millisecond, context.DeadlineExceeded)
		run(nil, &errSource{n: 100}, 1<<20, time.Minute, errTruncated)

		stall := &stallUntilCancelled{}
		stall.ctx, stall.cancel = context.WithCancel(context.Background())
		e, err := New(Config{Workers: workers, LeafSize: 64}, stall.filter, perShard(identity))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.CaptureWindow(stall.ctx, stall, 1<<30); !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d, ring in flight: err = %v, want %v", workers, err, context.Canceled)
		}
		if stall.calls != ringDepth {
			t.Errorf("workers=%d: reader made %d reads before it noticed the cancellation, want %d", workers, stall.calls, ringDepth)
		}
	}
	// Exited goroutines leave the count a moment after the WaitGroup
	// that joined them is released.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines before the captures, %d after", before, after)
	}
}
