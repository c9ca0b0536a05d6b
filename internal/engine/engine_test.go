package engine

import (
	"context"
	"errors"
	"testing"
	"time"

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

// darkFilter is the telescope's validity rule on raw addresses.
func darkFilter(dark ipaddr.Prefix) Filter {
	return func(p *pcap.Packet) bool { return dark.Contains(p.Dst) && !ipaddr.IsPrivate(p.Src) }
}

// testEngine builds an engine with a darkspace validity filter and an
// identity coordinate mapper.
func testEngine(t testing.TB, cfg Config, dark ipaddr.Prefix) *Engine {
	t.Helper()
	e, err := New(cfg, darkFilter(dark), perShard(identity))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{LeafSize: 0}).Validate(); err == nil {
		t.Error("LeafSize=0 accepted")
	}
	if _, err := New(Config{LeafSize: 8}, nil, nil); err == nil {
		t.Error("nil mapper factory accepted")
	}
	e, err := New(Config{LeafSize: 8}, nil, perShard(identity))
	if err != nil {
		t.Fatal(err)
	}
	c := e.cfg
	if c.Workers < 1 || c.Batch != 8 {
		t.Errorf("defaults not normalized: %+v", c)
	}
}

// TestShardedMatchesSerial is the engine's core invariant: for a fixed
// seed, every worker count — one included — produces the exact window
// the naive per-packet reference cuts from the same stream: same NV and
// drop accounting, same span, same matrix entries, and with them the
// same netquant Table II quantities at every count. Run under -race
// this is also the concurrency soundness test.
func TestShardedMatchesSerial(t *testing.T) {
	const nv = 1 << 13
	refStream, dark := testStream(t, 7)
	want := referenceWindow(refStream, darkFilter(dark), identity, nv)
	if want.NV != nv {
		t.Fatalf("reference NV = %d, want %d", want.NV, nv)
	}
	var wantQ netquant.Quantities
	for _, workers := range []int{1, 2, 4, 8} {
		st, _ := testStream(t, 7)
		e := testEngine(t, Config{Workers: workers, LeafSize: 1 << 9, Batch: 128}, dark)
		w, err := e.CaptureWindow(context.Background(), st, nv)
		if err != nil {
			t.Fatal(err)
		}
		if err := diffWindow(w, want, e.cfg); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		q := netquant.Compute(w.Matrix)
		if workers == 1 {
			wantQ = q
		} else if q != wantQ {
			t.Fatalf("workers=%d: Table II quantities differ:\n got %+v\nwant %+v", workers, q, wantQ)
		}
	}
}

// TestShardedLeafAccounting checks the leaf count against ⌈NV/leaf⌉
// (partial tail leaves per shard can add at most Workers-1 extra cuts,
// never lose one), and that one shard cuts exactly that many.
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
	st, _ = testStream(t, 11)
	one, err := testEngine(t, Config{Workers: 1, LeafSize: 512, Batch: 100}, dark).CaptureWindow(context.Background(), st, nv+100)
	if err != nil {
		t.Fatal(err)
	}
	if one.Leaves != minLeaves+1 || one.Shards != 1 {
		t.Errorf("one shard, %d packets: leaves = %d, shards = %d, want %d and 1", nv+100, one.Leaves, one.Shards, minLeaves+1)
	}
}

// TestShortStream: a stream smaller than NV ends the window early
// without error.
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
		e, err := New(Config{Workers: workers, LeafSize: 256}, nil, perShard(identity))
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		done := make(chan error, 1)
		go func() {
			_, err := e.CaptureWindow(ctx, slabs{&infiniteSource{}}, 1<<30)
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
// the filter rejects every packet, i.e. the window never fills and only
// the per-slab poll can end the capture.
func TestCancellationAllRejected(t *testing.T) {
	for _, workers := range []int{1, 4} {
		e, err := New(Config{Workers: workers, LeafSize: 256},
			func(*pcap.Packet) bool { return false }, perShard(identity))
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		done := make(chan error, 1)
		go func() {
			_, err := e.CaptureWindow(ctx, slabs{&infiniteSource{}}, 1)
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

var errTruncated = errors.New("truncated capture")

// errSource fails mid-stream the way a truncated pcap file does.
type errSource struct {
	n   int
	err error
}

func (s *errSource) Next(p *pcap.Packet) bool {
	if s.n == 0 {
		s.err = errTruncated
		return false
	}
	s.n--
	*p = pcap.Packet{Src: ipaddr.Addr(s.n), Dst: ipaddr.Addr(s.n % 7)}
	return true
}

func (s *errSource) Err() error { return s.err }

func TestSourceErrorPropagates(t *testing.T) {
	for _, workers := range []int{1, 4} {
		e, err := New(Config{Workers: workers, LeafSize: 64}, nil, perShard(identity))
		if err != nil {
			t.Fatal(err)
		}
		_, err = e.CaptureWindow(context.Background(), slabs{&errSource{n: 100}}, 1<<20)
		if !errors.Is(err, errTruncated) {
			t.Errorf("workers=%d: err = %v, want truncated capture", workers, err)
		}
	}
}

func TestBadWindowSize(t *testing.T) {
	e, err := New(Config{LeafSize: 8}, nil, perShard(identity))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.CaptureWindow(context.Background(), slabs{&infiniteSource{}}, 0); err == nil {
		t.Error("nv=0 accepted")
	}
}

// TestBatchSourceMatchesPerPacket: a source that hands out whole slabs
// (radiation.Stream's native NextBatch) and the same stream served one
// packet per Next call through the test adapter cut the window the
// per-packet reference cuts (NV, drops, span, leaves, every matrix
// entry) at every worker count.
func TestBatchSourceMatchesPerPacket(t *testing.T) {
	const nv = 1 << 12
	refStream, dark := testStream(t, 11)
	want := referenceWindow(refStream, darkFilter(dark), identity, nv)
	for _, workers := range []int{1, 4} {
		batched, _ := testStream(t, 11)
		plain, _ := testStream(t, 11)
		e := testEngine(t, Config{Workers: workers, LeafSize: 1 << 8}, dark)
		for name, src := range map[string]Source{"slab": batched, "per-packet": slabs{plain}} {
			w, err := e.CaptureWindow(context.Background(), src, nv)
			if err != nil {
				t.Fatal(err)
			}
			if err := diffWindow(w, want, e.cfg); err != nil {
				t.Fatalf("workers=%d %s: %v", workers, name, err)
			}
		}
	}
}

// TestBatchSourcePreservesStreamPosition captures several back-to-back
// windows from one shared stream, the engine through the slab reader and
// the reference one packet at a time: the slab reader must never consume
// a packet beyond each window's last accepted one, so every subsequent
// window cuts identical boundaries.
func TestBatchSourcePreservesStreamPosition(t *testing.T) {
	const nv = 1 << 10
	for _, workers := range []int{1, 3} {
		batched, dark := testStream(t, 23)
		plain, _ := testStream(t, 23)
		e := testEngine(t, Config{Workers: workers, LeafSize: 1 << 7}, dark)
		for window := 0; window < 4; window++ {
			w, err := e.CaptureWindow(context.Background(), batched, nv)
			if err != nil {
				t.Fatal(err)
			}
			if err := diffWindow(w, referenceWindow(plain, darkFilter(dark), identity, nv), e.cfg); err != nil {
				t.Fatalf("workers=%d window %d: diverged after shared-source capture: %v", workers, window, err)
			}
			if window == 0 && w.NV != nv {
				t.Fatalf("first window short: %d of %d", w.NV, nv)
			}
		}
	}
}

// TestBatchSourceCancellation asserts the slab reader honors a context
// cancelled before the first slab.
func TestBatchSourceCancellation(t *testing.T) {
	st, dark := testStream(t, 5)
	e := testEngine(t, Config{Workers: 4, LeafSize: 1 << 6}, dark)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.CaptureWindow(ctx, st, 1<<20); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled slab capture: err = %v", err)
	}
}
