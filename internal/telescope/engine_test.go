package telescope

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/assoc"
	"repro/internal/cryptopan"
	"repro/internal/hypersparse"
	"repro/internal/ipaddr"
	"repro/internal/netquant"
	"repro/internal/pcap"
	"repro/internal/radiation"
	"repro/internal/stats"
)

// referenceWindow is the naive capture the engine-backed one is diffed
// against, sharing none of its code: one packet at a time through the
// validity rule written out, a scalar CryptoPAN walk per address under
// the same passphrase (no memo, no batch, no prefix table), and a hash
// map of cells.
func referenceWindow(dark ipaddr.Prefix, passphrase string, next func(*pcap.Packet) bool, nv int) *Window {
	anon := cryptopan.NewFromPassphrase(passphrase)
	cells := make(map[[2]uint32]float64)
	w := &Window{}
	var p pcap.Packet
	for w.NV < nv && next(&p) {
		if !dark.Contains(p.Dst) || dark.Contains(p.Src) || ipaddr.IsPrivate(p.Src) {
			w.Dropped++
			continue
		}
		if w.NV == 0 {
			w.Start = p.Time
		}
		w.End = p.Time
		cells[[2]uint32{uint32(anon.Anonymize(p.Src)), uint32(anon.Anonymize(p.Dst))}]++
		w.NV++
	}
	entries := make([]hypersparse.Entry, 0, len(cells))
	for c, v := range cells {
		entries = append(entries, hypersparse.Entry{Row: c[0], Col: c[1], Val: v})
	}
	w.Matrix = hypersparse.FromEntries(entries)
	return w
}

// TestEngineCaptureMatchesSerial verifies the engine-backed capture is
// indistinguishable from the naive reference at every boundary and
// every worker count: exact anonymized matrix equality, window bounds,
// the deanonymized D4M source table (the reference's row sums, by
// original address), and a memo that holds the window's distinct
// sources and none of its destinations.
func TestEngineCaptureMatchesSerial(t *testing.T) {
	cfg := radiation.DefaultConfig()
	cfg.NumSources = 3000
	cfg.ZM = stats.PaperZM(1 << 10)
	pop, err := radiation.NewPopulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const nv = 4096
	refStream := pop.TelescopeStream(3, time.Unix(0, 0))
	want := referenceWindow(cfg.Darkspace, "engine-key", refStream.Next, nv)
	// The reference's source table: packets per original source, counted
	// before anonymization.
	wantTable := make(map[string]float64)
	{
		st := pop.TelescopeStream(3, time.Unix(0, 0))
		var p pcap.Packet
		for n := 0; n < nv && st.Next(&p); {
			if cfg.Darkspace.Contains(p.Dst) && !cfg.Darkspace.Contains(p.Src) && !ipaddr.IsPrivate(p.Src) {
				wantTable[p.Src.String()]++
				n++
			}
		}
	}

	for _, workers := range []int{1, 2, 8} {
		tel := New(cfg.Darkspace, "engine-key", WithLeafSize(1<<9))
		got, err := tel.CaptureWindowEngine(context.Background(), pop.TelescopeStream(3, time.Unix(0, 0)), nv, workers, 256)
		if err != nil {
			t.Fatal(err)
		}
		if memo, rows := tel.Anonymizer().Len(), got.Matrix.NRows(); memo != rows {
			t.Fatalf("workers=%d: memo holds %d addresses, window has %d distinct sources", workers, memo, rows)
		}
		if got.NV != want.NV || got.Dropped != want.Dropped {
			t.Fatalf("workers=%d: NV/Dropped %d/%d, want %d/%d",
				workers, got.NV, got.Dropped, want.NV, want.Dropped)
		}
		if !got.Start.Equal(want.Start) || !got.End.Equal(want.End) {
			t.Fatalf("workers=%d: window bounds differ", workers)
		}
		if !hypersparse.Equal(got.Matrix, want.Matrix) {
			t.Fatalf("workers=%d: engine matrix differs from the reference", workers)
		}
		table := tel.SourceTable(got)
		if table.NRows() != len(wantTable) {
			t.Fatalf("workers=%d: table sizes differ: %d vs %d", workers, table.NRows(), len(wantTable))
		}
		for k, v := range wantTable {
			if cell, _ := table.Get(k, "packets"); cell.Num != v {
				t.Fatalf("workers=%d: row %s = %g, want %g", workers, k, cell.Num, v)
			}
		}
	}
}

// TestEngineSourceTableAfterLaterCapture: a window's source table is a
// function of the window and the key, so it can be taken after the
// telescope has moved on to other captures and still covers every row.
func TestEngineSourceTableAfterLaterCapture(t *testing.T) {
	pop := testPopulation(t, 1000)
	tel := New(pop.Config().Darkspace, "table-key")
	w, err := tel.CaptureWindowEngine(context.Background(), pop.TelescopeStream(4, time.Unix(0, 0)), 2048, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	before := tel.SourceTable(w)
	if _, err := tel.CaptureWindowEngine(context.Background(), pop.TelescopeStream(9, time.Unix(0, 0)), 2048, 4, 0); err != nil {
		t.Fatal(err)
	}
	table := tel.SourceTable(w)
	before.Iterate(func(row, col string, v assoc.Value) bool {
		if got, ok := table.Get(row, col); !ok || got != v {
			t.Fatalf("cell (%s,%s) = %v after a later capture, was %v", row, col, got, v)
		}
		return true
	})
	if table.NRows() != before.NRows() || table.NRows() != w.Matrix.NRows() {
		t.Fatalf("table rows %d != matrix rows %d", table.NRows(), w.Matrix.NRows())
	}
	var sum float64
	for _, row := range table.RowKeys() {
		v, _ := table.Get(row, "packets")
		sum += v.Num
	}
	if sum != float64(w.NV) {
		t.Errorf("table total %g != NV %d", sum, w.NV)
	}
}

// TestEngineFollowsGOMAXPROCS: workers = 0 means "GOMAXPROCS now", not
// "GOMAXPROCS when this telescope cut its first window" — a long-lived
// telescope (studyd) whose process raises GOMAXPROCS between captures
// must shard the next window across the new count.
func TestEngineFollowsGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	pop := testPopulation(t, 1000)
	tel := New(pop.Config().Darkspace, "procs-key", WithLeafSize(1<<8))
	shards := func() int {
		t.Helper()
		eng, err := tel.engineFor(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		w, err := eng.CaptureWindow(context.Background(), pop.TelescopeStream(4, time.Unix(0, 0)), 2048)
		if err != nil {
			t.Fatal(err)
		}
		return w.Shards
	}
	if got := shards(); got != 1 {
		t.Fatalf("GOMAXPROCS(1): window cut by %d shards, want 1", got)
	}
	runtime.GOMAXPROCS(3)
	if got := shards(); got != 3 {
		t.Fatalf("GOMAXPROCS raised to 3: window cut by %d shards, want 3", got)
	}
	zero, _ := tel.engineFor(0, 0)
	if resolved, _ := tel.engineFor(3, 1<<8); zero != resolved {
		t.Error("(0, 0) and its resolved form (3, leaf) built two engines")
	}
}

// TestFilteredWindowAllocBudget holds a warm, drop-heavy window capture
// (15% bogon sources keep the in-shard filter busy) to 2048 allocations:
// ~10x the fixed per-capture cost (119 at one worker, 234 at eight when
// written) and 8x under one per packet, so it trips when filtering or
// mapping starts allocating per packet. Workers are explicit because
// AllocsPerRun pins GOMAXPROCS to 1, which would re-key a workers=0
// engine and measure a cold one.
func TestFilteredWindowAllocBudget(t *testing.T) {
	cfg := radiation.DefaultConfig()
	cfg.NumSources = 10000
	cfg.ZM = stats.PaperZM(1 << 14)
	cfg.BogonRate = 0.15
	pop, err := radiation.NewPopulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const nv = 1 << 14
	for _, workers := range []int{1, 8} {
		tel := New(cfg.Darkspace, "alloc-key", WithLeafSize(1<<10))
		capture := func() {
			w, err := tel.CaptureWindowEngine(context.Background(),
				pop.TelescopeStream(4.5, time.Unix(0, 0)), nv, workers, 0)
			if err != nil {
				t.Fatal(err)
			}
			if w.NV != nv || w.Dropped == 0 {
				t.Fatalf("workers=%d: window NV %d (want %d), %d dropped (want > 0)", workers, w.NV, nv, w.Dropped)
			}
		}
		capture() // warm the engine's pools and the anonymization memos
		got := testing.AllocsPerRun(5, capture)
		t.Logf("workers=%d: %.0f allocs per filtered window", workers, got)
		if got > 2048 {
			t.Errorf("workers=%d: %.0f allocs per filtered window of %d packets, budget is 2048", workers, got, nv)
		}
	}
}

func TestEngineRejectsBadNV(t *testing.T) {
	tel := New(radiation.DefaultConfig().Darkspace, "bad")
	if _, err := tel.CaptureWindowEngine(context.Background(), nil, 0, 4, 0); err == nil {
		t.Error("NV=0 accepted")
	}
}

func TestEngineShortStream(t *testing.T) {
	pop := testPopulation(t, 200)
	tel := New(pop.Config().Darkspace, "short-eng")
	w, err := tel.CaptureWindowEngine(context.Background(), pop.TelescopeStream(4, time.Unix(0, 0)), 1<<30, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if w.NV == 0 {
		t.Fatal("captured nothing")
	}
	if w.Matrix.Sum() != float64(w.NV) {
		t.Error("NV not conserved on short stream")
	}
}

// TestEngineCaptureCancel verifies a telescope capture can be abandoned
// mid-window.
func TestEngineCaptureCancel(t *testing.T) {
	cfg := radiation.DefaultConfig()
	cfg.NumSources = 3000
	cfg.ZM = stats.PaperZM(1 << 10)
	pop, err := radiation.NewPopulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tel := New(cfg.Darkspace, "cancel-key", WithLeafSize(1<<8))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := tel.CaptureWindowEngine(ctx, pop.TelescopeStream(3, time.Unix(0, 0)), 1<<20, 4, 0); err == nil {
		t.Error("cancelled capture succeeded")
	}
}

// TestEngineReaderSourceMatchesSerial is the wire-format slab path end
// to end: radiation -> pcap file -> batched reader (the engine pulls
// whole decoded slabs from ReaderSource) -> sharded engine with
// in-worker filtering and batched CryptoPAN -> window. It must match
// the naive reference reading the same bytes one packet at a time.
func TestEngineReaderSourceMatchesSerial(t *testing.T) {
	pop := testPopulation(t, 800)
	st := pop.TelescopeStream(4, time.Unix(1_592_395_200, 0))
	var buf bytes.Buffer
	pw, err := pcap.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var pkt pcap.Packet
	for emitted := 0; st.Next(&pkt) && emitted < 5000; emitted++ {
		if err := pw.WritePacket(&pkt); err != nil {
			t.Fatal(err)
		}
	}
	pw.Flush()
	read := func() *ReaderSource {
		pr, err := pcap.NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		return &ReaderSource{R: pr}
	}

	const nv = 2000
	pr := read().R
	classic := referenceWindow(pop.Config().Darkspace, "pcap-engine", func(p *pcap.Packet) bool {
		var one [1]pcap.Packet
		n, _ := pr.NextBatch(one[:])
		*p = one[0]
		return n == 1
	}, nv)
	for _, workers := range []int{1, 4} {
		tel := New(pop.Config().Darkspace, "pcap-engine")
		w, err := tel.CaptureWindowEngine(context.Background(), read(), nv, workers, 128)
		if err != nil {
			t.Fatal(err)
		}
		if w.NV != classic.NV || w.Dropped != classic.Dropped ||
			!w.Start.Equal(classic.Start) || !w.End.Equal(classic.End) {
			t.Fatalf("workers=%d: window %d/%d [%v, %v], want %d/%d [%v, %v]",
				workers, w.NV, w.Dropped, w.Start, w.End,
				classic.NV, classic.Dropped, classic.Start, classic.End)
		}
		if !hypersparse.Equal(w.Matrix, classic.Matrix) {
			t.Fatalf("workers=%d: matrix differs from the reference pcap capture", workers)
		}
	}
}

// TestEngineReaderSourceTruncated verifies a mid-stream pcap decode
// error surfaces from the batched engine path (through the deferred
// NextBatch error and the Errorer hook), not silently as a short
// window.
func TestEngineReaderSourceTruncated(t *testing.T) {
	pop := testPopulation(t, 500)
	st := pop.TelescopeStream(4, time.Unix(1_592_395_200, 0))
	var buf bytes.Buffer
	pw, err := pcap.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var pkt pcap.Packet
	for emitted := 0; st.Next(&pkt) && emitted < 2000; emitted++ {
		if err := pw.WritePacket(&pkt); err != nil {
			t.Fatal(err)
		}
	}
	pw.Flush()
	data := buf.Bytes()[:buf.Len()-5] // cut the last record's body
	pr, err := pcap.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	tel := New(pop.Config().Darkspace, "truncated-engine")
	if _, err := tel.CaptureWindowEngine(context.Background(), &ReaderSource{R: pr}, 1<<20, 4, 0); err == nil {
		t.Fatal("truncated pcap capture succeeded")
	}
}

func BenchmarkCaptureSerial(b *testing.B) {
	benchCapture(b, func(tel *Telescope, src PacketSource, nv int) (*Window, error) {
		return tel.CaptureWindowEngine(context.Background(), src, nv, 1, 0)
	})
}

func BenchmarkCaptureEngine(b *testing.B) {
	benchCapture(b, func(tel *Telescope, src PacketSource, nv int) (*Window, error) {
		return tel.CaptureWindowEngine(context.Background(), src, nv, 0, 0)
	})
}

func benchCapture(b *testing.B, capture func(*Telescope, PacketSource, int) (*Window, error)) {
	b.Helper()
	c := radiation.DefaultConfig()
	c.NumSources = 50000
	pop, err := radiation.NewPopulation(c)
	if err != nil {
		b.Fatal(err)
	}
	const nv = 1 << 16
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tel := New(c.Darkspace, "bench-key", WithLeafSize(1<<12))
		w, err := capture(tel, pop.TelescopeStream(4.5, time.Unix(0, 0)), nv)
		if err != nil {
			b.Fatal(err)
		}
		if w.NV != nv {
			b.Fatalf("short window %d", w.NV)
		}
	}
}

// BenchmarkReplayWindows is the pcap_replay shape of the end-to-end
// benchmark as a go test benchmark: eight back-to-back 2^18-packet
// windows, one in ten packets a bogon, decoded from pcap bytes by a
// fresh telescope at the default worker count, Table II computed per
// window. Beside ns/op (one replay) it reports where the steady
// windows' wall went, from Window.Timings: the share of the slab loop a
// shard spent waiting, and the per-window reader, merge and Table II
// milliseconds.
func BenchmarkReplayWindows(b *testing.B) {
	const nv, windows = 1 << 18, 8
	c := radiation.DefaultConfig()
	c.NumSources = 100000
	c.ZM = stats.PaperZM(1 << 16)
	c.BrightLog2 = 9
	c.BogonRate = 0.10
	pop, err := radiation.NewPopulation(c)
	if err != nil {
		b.Fatal(err)
	}
	// A file, not a buffer: 170 MB of live heap would space the
	// collector's cycles far wider than a replaying process sees them.
	file, err := os.Create(filepath.Join(b.TempDir(), "windows.pcap"))
	if err != nil {
		b.Fatal(err)
	}
	defer file.Close()
	pw, err := pcap.NewWriter(file)
	if err != nil {
		b.Fatal(err)
	}
	tel := New(c.Darkspace, "replay-key")
	var pkt pcap.Packet
	for k := 0; k < windows; k++ {
		st := pop.TelescopeStream(4.5, time.Unix(int64(k)*3600, 0))
		for valid := 0; valid < nv && st.Next(&pkt); {
			if tel.valid(&pkt) {
				valid++
			}
			if err := pw.WritePacket(&pkt); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := pw.Flush(); err != nil {
		b.Fatal(err)
	}
	var loop, wait, read, readerWait, merge, table2 time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := file.Seek(0, io.SeekStart); err != nil {
			b.Fatal(err)
		}
		rd, err := pcap.NewReader(file)
		if err != nil {
			b.Fatal(err)
		}
		src := &ReaderSource{R: rd}
		tel := New(c.Darkspace, "replay-key")
		for k := 0; k < windows; k++ {
			w, err := tel.CaptureWindowEngine(context.Background(), src, nv, 0, 0)
			if err != nil || w.NV != nv {
				b.Fatalf("window %d: NV %d, err %v", k, w.NV, err)
			}
			t0 := time.Now()
			netquant.Compute(w.Matrix)
			if k == 0 {
				continue // cold: CryptoPAN tables and pools fill here
			}
			table2 += time.Since(t0)
			tm := w.Timings
			for s := range tm.ShardBusy {
				loop += tm.ShardBusy[s] + tm.ShardWait[s]
				wait += tm.ShardWait[s]
			}
			read, readerWait, merge = read+tm.Read, readerWait+tm.ReaderWait, merge+tm.Merge
		}
	}
	steady := float64(b.N * (windows - 1))
	ms := func(d time.Duration) float64 { return d.Seconds() * 1e3 / steady }
	b.ReportMetric(float64(wait)/float64(loop), "shard-wait-share")
	b.ReportMetric(ms(loop)/float64(runtime.GOMAXPROCS(0)), "loop-ms/window")
	b.ReportMetric(ms(read), "read-ms/window")
	b.ReportMetric(ms(readerWait), "reader-wait-ms/window")
	b.ReportMetric(ms(merge), "merge-ms/window")
	b.ReportMetric(ms(table2), "table2-ms/window")
}
