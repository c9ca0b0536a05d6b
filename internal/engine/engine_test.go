package engine

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/hypersparse"
	"repro/internal/ipaddr"
	"repro/internal/netquant"
	"repro/internal/pcap"
	"repro/internal/radiation"
	"repro/internal/stats"
)

// testStream returns a fixed-seed telescope stream plus the population's
// darkspace, so every test run (and every worker count) sees the exact
// same packet sequence.
func testStream(t testing.TB, seed int64) (*radiation.Stream, ipaddr.Prefix) {
	t.Helper()
	cfg := radiation.DefaultConfig()
	cfg.Seed = seed
	cfg.NumSources = 5000
	cfg.ZM = stats.PaperZM(1 << 11)
	pop, err := radiation.NewPopulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return pop.TelescopeStream(3, time.Unix(0, 0)), cfg.Darkspace
}

// testEngine builds an engine with a darkspace validity filter and an
// identity coordinate mapper.
func testEngine(t testing.TB, cfg Config, dark ipaddr.Prefix) *Engine {
	t.Helper()
	e, err := New(cfg,
		func(p *pcap.Packet) bool { return dark.Contains(p.Dst) && !ipaddr.IsPrivate(p.Src) },
		func(p *pcap.Packet) Pair { return Pair{Row: uint32(p.Src), Col: uint32(p.Dst)} })
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func entries(m *hypersparse.Matrix) []hypersparse.Entry {
	var out []hypersparse.Entry
	m.Iterate(func(e hypersparse.Entry) bool {
		out = append(out, e)
		return true
	})
	return out
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{LeafSize: 0}).Validate(); err == nil {
		t.Error("LeafSize=0 accepted")
	}
	if _, err := New(Config{LeafSize: 8}, nil, nil); err == nil {
		t.Error("nil mapper accepted")
	}
	e, err := New(Config{LeafSize: 8}, nil, func(*pcap.Packet) Pair { return Pair{} })
	if err != nil {
		t.Fatal(err)
	}
	c := e.Config()
	if c.Workers < 1 || c.Batch != 8 {
		t.Errorf("defaults not normalized: %+v", c)
	}
}

// TestShardedMatchesSerial is the engine's core invariant: for a fixed
// seed, every worker count produces the exact same window — same NV and
// drop accounting, same matrix entries, same netquant Table II
// quantities — because the matrix is a commutative sum of the same
// triples regardless of how leaves are sharded. Run under -race this is
// also the concurrency soundness test.
func TestShardedMatchesSerial(t *testing.T) {
	const nv = 1 << 13
	capture := func(workers int) *Window {
		st, dark := testStream(t, 7)
		e := testEngine(t, Config{Workers: workers, LeafSize: 1 << 9, Batch: 128}, dark)
		w, err := e.CaptureWindow(context.Background(), st, nv)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	serial := capture(1)
	if serial.NV != nv {
		t.Fatalf("serial NV = %d, want %d", serial.NV, nv)
	}
	want := entries(serial.Matrix)
	wantQ := netquant.Compute(serial.Matrix)
	for _, workers := range []int{2, 4, 8} {
		sharded := capture(workers)
		if sharded.NV != serial.NV || sharded.Dropped != serial.Dropped {
			t.Fatalf("workers=%d: NV/Dropped %d/%d, want %d/%d",
				workers, sharded.NV, sharded.Dropped, serial.NV, serial.Dropped)
		}
		if !sharded.Start.Equal(serial.Start) || !sharded.End.Equal(serial.End) {
			t.Errorf("workers=%d: window span differs", workers)
		}
		if sharded.Matrix.NNZ() != serial.Matrix.NNZ() {
			t.Fatalf("workers=%d: NNZ %d, want %d", workers, sharded.Matrix.NNZ(), serial.Matrix.NNZ())
		}
		if sharded.Matrix.NRows() != serial.Matrix.NRows() {
			t.Fatalf("workers=%d: NRows %d, want %d", workers, sharded.Matrix.NRows(), serial.Matrix.NRows())
		}
		if q := netquant.Compute(sharded.Matrix); q != wantQ {
			t.Fatalf("workers=%d: Table II quantities differ:\n got %+v\nwant %+v", workers, q, wantQ)
		}
		got := entries(sharded.Matrix)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: entry %d = %+v, want %+v", workers, i, got[i], want[i])
			}
		}
	}
}

// TestShardedLeafAccounting checks the leaf count matches the serial
// build's total (partial tail leaves per shard can add at most
// Workers-1 extra cuts, never lose one).
func TestShardedLeafAccounting(t *testing.T) {
	const nv = 4096
	st, dark := testStream(t, 11)
	e := testEngine(t, Config{Workers: 4, LeafSize: 512, Batch: 100}, dark)
	w, err := e.CaptureWindow(context.Background(), st, nv)
	if err != nil {
		t.Fatal(err)
	}
	minLeaves := nv / 512
	maxLeaves := minLeaves + 4 // one partial tail per shard
	if w.Leaves < minLeaves || w.Leaves > maxLeaves {
		t.Errorf("leaves = %d, want in [%d, %d]", w.Leaves, minLeaves, maxLeaves)
	}
	if w.Shards < 1 || w.Shards > 4 {
		t.Errorf("shards = %d", w.Shards)
	}
	if w.Matrix.Sum() != nv {
		t.Errorf("matrix sum = %g, want %d", w.Matrix.Sum(), nv)
	}
}

// TestShortStream: a stream smaller than NV ends the window early
// without error, mirroring the serial capture contract.
func TestShortStream(t *testing.T) {
	for _, workers := range []int{1, 4} {
		st, dark := testStream(t, 3)
		total := st.ExpectedPackets()
		e := testEngine(t, Config{Workers: workers, LeafSize: 256}, dark)
		w, err := e.CaptureWindow(context.Background(), st, total*10)
		if err != nil {
			t.Fatal(err)
		}
		if w.NV+w.Dropped != total {
			t.Errorf("workers=%d: NV+Dropped = %d, want %d", workers, w.NV+w.Dropped, total)
		}
		if w.Matrix.Sum() != float64(w.NV) {
			t.Errorf("workers=%d: sum %g != NV %d", workers, w.Matrix.Sum(), w.NV)
		}
	}
}

// infiniteSource never ends; it exists to prove cancellation works even
// when the stream alone would never terminate the capture.
type infiniteSource struct {
	i uint32
	t time.Time
}

func (s *infiniteSource) Next(p *pcap.Packet) bool {
	s.i++
	s.t = s.t.Add(time.Millisecond)
	*p = pcap.Packet{Time: s.t, Src: ipaddr.Addr(0xC0000000 + s.i%100000), Dst: ipaddr.Addr(s.i % 1024)}
	return true
}

func TestContextCancellation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		e, err := New(Config{Workers: workers, LeafSize: 256}, nil,
			func(p *pcap.Packet) Pair { return Pair{Row: uint32(p.Src), Col: uint32(p.Dst)} })
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		done := make(chan error, 1)
		go func() {
			_, err := e.CaptureWindow(ctx, &infiniteSource{}, 1<<30)
			done <- err
		}()
		select {
		case err := <-done:
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("workers=%d: err = %v, want deadline exceeded", workers, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("workers=%d: capture did not stop after cancellation", workers)
		}
		cancel()
	}
}

// TestCancellationAllRejected: cancellation must be observed even when
// the filter rejects every packet, i.e. no batch ever fills and the
// send-side poll never runs.
func TestCancellationAllRejected(t *testing.T) {
	for _, workers := range []int{1, 4} {
		e, err := New(Config{Workers: workers, LeafSize: 256},
			func(*pcap.Packet) bool { return false },
			func(p *pcap.Packet) Pair { return Pair{} })
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		done := make(chan error, 1)
		go func() {
			_, err := e.CaptureWindow(ctx, &infiniteSource{}, 1)
			done <- err
		}()
		select {
		case err := <-done:
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("workers=%d: err = %v, want deadline exceeded", workers, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("workers=%d: all-rejected capture did not observe cancellation", workers)
		}
		cancel()
	}
}

// errSource fails mid-stream the way a truncated pcap file does.
type errSource struct {
	n   int
	err error
}

func (s *errSource) Next(p *pcap.Packet) bool {
	if s.n == 0 {
		s.err = errors.New("truncated capture")
		return false
	}
	s.n--
	*p = pcap.Packet{Src: ipaddr.Addr(s.n), Dst: ipaddr.Addr(s.n % 7)}
	return true
}

func (s *errSource) Err() error { return s.err }

func TestSourceErrorPropagates(t *testing.T) {
	for _, workers := range []int{1, 4} {
		e, err := New(Config{Workers: workers, LeafSize: 64}, nil,
			func(p *pcap.Packet) Pair { return Pair{Row: uint32(p.Src), Col: uint32(p.Dst)} })
		if err != nil {
			t.Fatal(err)
		}
		_, err = e.CaptureWindow(context.Background(), &errSource{n: 100}, 1<<20)
		if err == nil || err.Error() != "truncated capture" {
			t.Errorf("workers=%d: err = %v, want truncated capture", workers, err)
		}
	}
}

func TestBadWindowSize(t *testing.T) {
	e, err := New(Config{LeafSize: 8}, nil, func(*pcap.Packet) Pair { return Pair{} })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.CaptureWindow(context.Background(), &infiniteSource{}, 0); err == nil {
		t.Error("nv=0 accepted")
	}
}

// perPacketOnly hides a stream's NextBatch so the engine is forced onto
// the per-packet reader path — the oracle the slab path is diffed
// against.
type perPacketOnly struct{ s *radiation.Stream }

func (p perPacketOnly) Next(pkt *pcap.Packet) bool { return p.s.Next(pkt) }

// TestBatchSourceMatchesPerPacket diffs the slab reader against the
// per-packet reader on the same seeded stream: identical windows (NV,
// drops, span, leaves, every matrix entry) at every worker count.
func TestBatchSourceMatchesPerPacket(t *testing.T) {
	const nv = 1 << 12
	for _, workers := range []int{1, 4} {
		batched, dark := testStream(t, 11)
		plain, _ := testStream(t, 11)
		e := testEngine(t, Config{Workers: workers, LeafSize: 1 << 8}, dark)
		wb, err := e.CaptureWindow(context.Background(), batched, nv)
		if err != nil {
			t.Fatal(err)
		}
		wp, err := e.CaptureWindow(context.Background(), perPacketOnly{plain}, nv)
		if err != nil {
			t.Fatal(err)
		}
		if wb.NV != wp.NV || wb.Dropped != wp.Dropped || wb.Leaves != wp.Leaves ||
			!wb.Start.Equal(wp.Start) || !wb.End.Equal(wp.End) {
			t.Fatalf("workers=%d: window accounting differs:\nslab       %+v\nper-packet %+v", workers, wb, wp)
		}
		be, pe := entries(wb.Matrix), entries(wp.Matrix)
		if len(be) != len(pe) {
			t.Fatalf("workers=%d: NNZ %d vs %d", workers, len(be), len(pe))
		}
		for i := range be {
			if be[i] != pe[i] {
				t.Fatalf("workers=%d: entry %d differs: %+v vs %+v", workers, i, be[i], pe[i])
			}
		}
	}
}

// TestBatchSourcePreservesStreamPosition captures several back-to-back
// windows from one shared stream on both reader paths: the slab reader
// must never consume a packet beyond each window's last accepted one,
// so every subsequent window cuts identical boundaries.
func TestBatchSourcePreservesStreamPosition(t *testing.T) {
	const nv = 1 << 10
	batched, dark := testStream(t, 23)
	plain, _ := testStream(t, 23)
	e := testEngine(t, Config{Workers: 1, LeafSize: 1 << 7}, dark)
	for window := 0; window < 4; window++ {
		wb, err := e.CaptureWindow(context.Background(), batched, nv)
		if err != nil {
			t.Fatal(err)
		}
		wp, err := e.CaptureWindow(context.Background(), perPacketOnly{plain}, nv)
		if err != nil {
			t.Fatal(err)
		}
		if wb.NV != wp.NV || wb.Dropped != wp.Dropped || !wb.End.Equal(wp.End) {
			t.Fatalf("window %d: diverged after shared-source capture:\nslab       %+v\nper-packet %+v",
				window, wb, wp)
		}
		be, pe := entries(wb.Matrix), entries(wp.Matrix)
		if len(be) != len(pe) {
			t.Fatalf("window %d: NNZ %d vs %d", window, len(be), len(pe))
		}
		for i := range be {
			if be[i] != pe[i] {
				t.Fatalf("window %d: entry %d differs", window, i)
			}
		}
		if window == 0 && wb.NV != nv {
			t.Fatalf("first window short: %d of %d", wb.NV, nv)
		}
	}
}

// TestBatchSourceCancellation asserts the slab reader honors context
// cancellation mid-window without leaking goroutines or wedging on
// backpressure.
func TestBatchSourceCancellation(t *testing.T) {
	st, dark := testStream(t, 5)
	e := testEngine(t, Config{Workers: 4, LeafSize: 1 << 6}, dark)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.CaptureWindow(ctx, st, 1<<20); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled slab capture: err = %v", err)
	}
}
