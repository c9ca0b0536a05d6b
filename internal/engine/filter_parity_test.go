package engine

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ipaddr"
	"repro/internal/pcap"
	"repro/internal/radiation"
	"repro/internal/stats"
)

// dropHeavy is a deterministic validity filter that rejects roughly a
// seventh of the stream based on packet contents alone, so every worker
// count sees the exact same accept/reject sequence while the drop path
// stays hot enough to matter.
func dropHeavy(dark ipaddr.Prefix) Filter {
	return func(p *pcap.Packet) bool {
		if !dark.Contains(p.Dst) || ipaddr.IsPrivate(p.Src) {
			return false
		}
		return (uint32(p.Src)*2654435761)%7 != 0
	}
}

// filteredStream builds a fixed-seed telescope stream for the parity
// sweep.
func filteredStream(t testing.TB, seed int64) (*radiation.Stream, ipaddr.Prefix) {
	t.Helper()
	cfg := radiation.DefaultConfig()
	cfg.Seed = seed
	cfg.NumSources = 4000
	cfg.ZM = stats.PaperZM(1 << 11)
	pop, err := radiation.NewPopulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return pop.TelescopeStream(3, time.Unix(0, 0)), cfg.Darkspace
}

// TestParallelFilterMatchesSerial is the in-shard filtering parity
// sweep: with a drop-heavy filter, every worker count — on both a
// slab-native source and one served a packet at a time — must reproduce
// the naive per-packet reference's window exactly (NV, Dropped,
// Start/End timestamps, every matrix entry), and the per-shard drop
// counters must sum to its drop count. Run under -race in CI, this is
// also the proof that concurrent filter evaluation and per-shard drop
// accounting are sound.
func TestParallelFilterMatchesSerial(t *testing.T) {
	const nv = 1 << 12
	refStream, dark := filteredStream(t, 41)
	want := referenceWindow(refStream, dropHeavy(dark), identity, nv)
	if want.NV != nv {
		t.Fatalf("reference NV = %d, want %d", want.NV, nv)
	}
	if want.Dropped < nv/20 {
		t.Fatalf("reference Dropped = %d: filter not drop-heavy enough to exercise the parity rule", want.Dropped)
	}
	for _, workers := range []int{1, 2, 3, 4, 8} {
		for _, perPacket := range []bool{false, true} {
			st, _ := filteredStream(t, 41)
			e, err := New(Config{Workers: workers, LeafSize: 1 << 8, Batch: 96}, dropHeavy(dark), perShard(identity))
			if err != nil {
				t.Fatal(err)
			}
			var src Source = st
			if perPacket {
				src = slabs{st}
			}
			w, err := e.CaptureWindow(context.Background(), src, nv)
			if err != nil {
				t.Fatal(err)
			}
			if err := diffWindow(w, want, e.cfg); err != nil {
				t.Fatalf("workers=%d per-packet=%v: %v", workers, perPacket, err)
			}
		}
	}
}

// TestParallelFilterMultiWindow cuts several back-to-back filtered
// windows from one shared stream at every worker count: in-shard
// filtering must leave the source at exactly the reference's consumed
// prefix after each window, or boundaries drift.
func TestParallelFilterMultiWindow(t *testing.T) {
	const nv = 1 << 10
	for _, workers := range []int{1, 2, 4} {
		st, dark := filteredStream(t, 43)
		refStream, _ := filteredStream(t, 43)
		e, err := New(Config{Workers: workers, LeafSize: 1 << 7}, dropHeavy(dark), perShard(identity))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			w, err := e.CaptureWindow(context.Background(), st, nv)
			if err != nil {
				t.Fatal(err)
			}
			if err := diffWindow(w, referenceWindow(refStream, dropHeavy(dark), identity, nv), e.cfg); err != nil {
				t.Fatalf("workers=%d window %d: %v", workers, i, err)
			}
		}
	}
}

// TestRingRefunds is the parity table of the credit rule: drop patterns
// that refund credits while slabs are in flight, a rejected run longer
// than the ring, a stream that is all rejected and then accepted, and
// one that ends inside the ring — at every worker count 1 to 8, four
// consecutive windows on one shared source, each compared to the naive
// reference field by field and by the packet the source is left at.
func TestRingRefunds(t *testing.T) {
	cases := []struct {
		name                           string
		dropMod, pattern, nv, batch, n int
	}{
		{"half of every slab", 0, 3, 2000, 7, 1 << 14},
		{"half by position, a third by content", 3, 3, 1000, 5, 1 << 14},
		{"rejected run longer than the ring", 0, 1, 1500, 7, 1 << 13},
		{"all rejected, then accepted", 5, 2, 700, 1, 1 << 12},
		{"stream ends inside the ring", 2, 3, 8000, 7, 100},
		{"stream ends on a slab boundary", 0, 0, 8000, 8, 64},
		{"nothing dropped", 0, 0, 3000, 16, 1 << 14},
		{"window smaller than a slab", 7, 0, 5, 64, 1 << 10},
	}
	for _, c := range cases {
		for workers := 1; workers <= 8; workers++ {
			filter := scriptFilter(c.dropMod)
			e, err := New(Config{Workers: workers, LeafSize: 64, Batch: c.batch}, filter, perShard(identity))
			if err != nil {
				t.Fatal(err)
			}
			pkts := scriptStream(c.n, 31, c.pattern, c.batch*workers)
			if err := diffWindows(e, pkts, filter, c.nv, 4); err != nil {
				t.Errorf("%s, workers=%d: %v", c.name, workers, err)
			}
		}
	}
}

// TestRingBounds asserts the two bounds of the package comment from the
// source's side of every read: the raw packets read and not yet
// filtered never exceed ringDepth x Batch x Workers, and the packets
// read and not yet known dropped never exceed the window — so a capture
// can never have consumed a packet a per-packet loop would have left.
// The filter holds the shards until the reader has had time to fill the
// ring, which is what would catch a ring deeper than it says; a slow
// machine only makes the test less sharp, never red.
func TestRingBounds(t *testing.T) {
	const workers, batch, nv = 2, 32, 5000
	slabCap := batch * workers
	var read, seen, dropped atomic.Int64
	release := make(chan struct{})
	time.AfterFunc(50*time.Millisecond, func() { close(release) })
	filter := func(p *pcap.Packet) bool {
		<-release
		seen.Add(1)
		if p.Src%2 == 0 {
			dropped.Add(1)
			return false
		}
		return true
	}
	src := sourceFunc(func(dst []pcap.Packet) int {
		if inFlight := read.Load() - seen.Load() + int64(len(dst)); inFlight > int64(ringDepth*slabCap) {
			t.Errorf("read of %d with %d raw packets in flight: bound is %d", len(dst), inFlight-int64(len(dst)), ringDepth*slabCap)
		}
		if open := read.Load() - dropped.Load() + int64(len(dst)); open > nv {
			t.Errorf("read of %d with %d packets read and not known dropped: the window is %d", len(dst), open-int64(len(dst)), nv)
		}
		n := slabs{&infiniteSource{i: uint32(read.Load())}}.NextBatch(dst)
		read.Add(int64(n))
		return n
	})
	e, err := New(Config{Workers: workers, LeafSize: 64, Batch: batch}, filter, perShard(identity))
	if err != nil {
		t.Fatal(err)
	}
	w, err := e.CaptureWindow(context.Background(), src, nv)
	if err != nil {
		t.Fatal(err)
	}
	if w.NV != nv || int64(w.NV+w.Dropped) != read.Load() {
		t.Errorf("NV %d, Dropped %d after %d packets read, want NV %d and every packet accounted for", w.NV, w.Dropped, read.Load(), nv)
	}
}

// sourceFunc is a Source made of its NextBatch.
type sourceFunc func(dst []pcap.Packet) int

func (f sourceFunc) NextBatch(dst []pcap.Packet) int { return f(dst) }

// TestWindowTimings: a window accounts for its own wall. Per shard,
// busy plus wait runs from the start of the capture to the moment the
// shard sees the slab loop end, so it fits into the capture's span; the
// reader's two numbers fit into the loop; and a capture that filtered
// thousands of packets was busy for some of it.
func TestWindowTimings(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		st, dark := filteredStream(t, 41)
		e, err := New(Config{Workers: workers, LeafSize: 1 << 8, Batch: 96}, dropHeavy(dark), perShard(identity))
		if err != nil {
			t.Fatal(err)
		}
		w, err := e.CaptureWindow(context.Background(), st, 1<<12)
		if err != nil {
			t.Fatal(err)
		}
		tm := w.Timings
		loop := tm.Total - tm.Merge
		if tm.Total <= 0 || tm.Merge <= 0 || tm.Read <= 0 || loop <= 0 {
			t.Fatalf("workers=%d: timings not recorded: %+v", workers, tm)
		}
		if tm.Read+tm.ReaderWait > loop {
			t.Errorf("workers=%d: reader read %v + waited %v, more than the loop's %v", workers, tm.Read, tm.ReaderWait, loop)
		}
		if len(tm.ShardBusy) != workers || len(tm.ShardWait) != workers {
			t.Fatalf("workers=%d: %d busy and %d wait entries", workers, len(tm.ShardBusy), len(tm.ShardWait))
		}
		for s := range tm.ShardBusy {
			if tm.ShardBusy[s] <= 0 {
				t.Errorf("workers=%d: shard %d was never busy", workers, s)
			}
			if got := tm.ShardBusy[s] + tm.ShardWait[s]; got > tm.Total {
				t.Errorf("workers=%d: shard %d busy %v + wait %v, more than the capture's %v", workers, s, tm.ShardBusy[s], tm.ShardWait[s], tm.Total)
			}
		}
	}
}

// benchFilteredWindow drives repeated drop-heavy window captures;
// telescope's TestFilteredWindowAllocBudget holds the same path to its
// allocation budget end to end.
func benchFilteredWindow(b *testing.B, workers int) {
	cfg := radiation.DefaultConfig()
	cfg.Seed = 47
	cfg.NumSources = 4000
	cfg.ZM = stats.PaperZM(1 << 11)
	pop, err := radiation.NewPopulation(cfg)
	if err != nil {
		b.Fatal(err)
	}
	e, err := New(Config{Workers: workers, LeafSize: 1 << 10}, dropHeavy(cfg.Darkspace), perShard(identity))
	if err != nil {
		b.Fatal(err)
	}
	const nv = 1 << 14
	st := pop.TelescopeStream(3, time.Unix(0, 0))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := e.CaptureWindow(context.Background(), st, nv)
		if err != nil {
			b.Fatal(err)
		}
		if w.NV < nv {
			b.StopTimer()
			st = pop.TelescopeStream(3, time.Unix(0, 0))
			b.StartTimer()
		}
	}
}

func BenchmarkFilteredWindowW1(b *testing.B) { benchFilteredWindow(b, 1) }
func BenchmarkFilteredWindowW8(b *testing.B) { benchFilteredWindow(b, 8) }
