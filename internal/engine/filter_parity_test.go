package engine

import (
	"context"
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
			if err := diffWindow(w, want, e.Config()); err != nil {
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
			if err := diffWindow(w, referenceWindow(refStream, dropHeavy(dark), identity, nv), e.Config()); err != nil {
				t.Fatalf("workers=%d window %d: %v", workers, i, err)
			}
		}
	}
}

// benchFilteredWindow drives repeated drop-heavy window captures; the
// filter_window benchreport metrics measure the same path end to end.
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
