package telescope

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/hypersparse"
	"repro/internal/ipaddr"
	"repro/internal/pcap"
	"repro/internal/radiation"
	"repro/internal/stats"
)

func testPopulation(t *testing.T, n int) *radiation.Population {
	t.Helper()
	c := radiation.DefaultConfig()
	c.NumSources = n
	c.ZM = stats.PaperZM(1 << 12)
	p, err := radiation.NewPopulation(c)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestValidFilter(t *testing.T) {
	tel := New(ipaddr.MustParsePrefix("44.0.0.0/8"), "test")
	cases := []struct {
		src, dst string
		want     bool
	}{
		{"1.2.3.4", "44.1.2.3", true},
		{"1.2.3.4", "45.1.2.3", false},  // not darkspace
		{"10.0.0.1", "44.1.2.3", false}, // private source
		{"44.9.9.9", "44.1.2.3", false}, // internal source
	}
	for _, c := range cases {
		p := &pcap.Packet{Src: ipaddr.MustParse(c.src), Dst: ipaddr.MustParse(c.dst)}
		if got := tel.valid(p); got != c.want {
			t.Errorf("Valid(%s->%s) = %v, want %v", c.src, c.dst, got, c.want)
		}
	}
}

func TestCaptureWindowExactNV(t *testing.T) {
	pop := testPopulation(t, 3000)
	tel := New(pop.Config().Darkspace, "exact-nv", WithLeafSize(256))
	st := pop.TelescopeStream(4, time.Unix(0, 0))
	const nv = 4096
	w, err := tel.CaptureWindowEngine(context.Background(), st, nv, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if w.NV != nv {
		t.Fatalf("NV = %d, want %d", w.NV, nv)
	}
	// NV conservation through anonymization and hierarchical assembly.
	if got := w.Matrix.Sum(); got != float64(nv) {
		t.Errorf("matrix sum = %g, want %d", got, nv)
	}
	if w.Leaves < nv/256 {
		t.Errorf("Leaves = %d, want >= %d", w.Leaves, nv/256)
	}
	if !w.End.After(w.Start) {
		t.Error("window has non-positive duration")
	}
}

func TestCaptureWindowShortStream(t *testing.T) {
	pop := testPopulation(t, 200)
	tel := New(pop.Config().Darkspace, "short")
	st := pop.TelescopeStream(4, time.Unix(0, 0))
	w, err := tel.CaptureWindowEngine(context.Background(), st, 1<<30, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if w.NV == 0 {
		t.Fatal("captured nothing")
	}
	if w.NV > st.Emitted() {
		t.Error("captured more than emitted")
	}
}

func TestCaptureWindowRejectsBadNV(t *testing.T) {
	tel := New(ipaddr.MustParsePrefix("44.0.0.0/8"), "bad")
	if _, err := tel.CaptureWindowEngine(context.Background(), nil, 0, 1, 0); err == nil {
		t.Error("NV=0 accepted")
	}
}

func TestCaptureDropsInvalid(t *testing.T) {
	c := radiation.DefaultConfig()
	c.NumSources = 2000
	c.ZM = stats.PaperZM(1 << 12)
	c.BogonRate = 0.10
	pop, _ := radiation.NewPopulation(c)
	tel := New(c.Darkspace, "drops")
	st := pop.TelescopeStream(4, time.Unix(0, 0))
	w, err := tel.CaptureWindowEngine(context.Background(), st, 1<<30, 1, 0) // drain whole stream
	if err != nil {
		t.Fatal(err)
	}
	if w.Dropped == 0 {
		t.Error("bogon-polluted stream produced zero drops")
	}
	total := w.NV + w.Dropped
	rate := float64(w.Dropped) / float64(total)
	if rate < 0.05 || rate > 0.15 {
		t.Errorf("drop rate %g, want near 0.10", rate)
	}
}

func TestAnonymizedMatrixHidesRealAddresses(t *testing.T) {
	pop := testPopulation(t, 1000)
	tel := New(pop.Config().Darkspace, "hide")
	st := pop.TelescopeStream(4, time.Unix(0, 0))
	w, _ := tel.CaptureWindowEngine(context.Background(), st, 2048, 1, 0)
	// Column ids are anonymized darkspace addresses; overwhelmingly they
	// should NOT fall inside the darkspace prefix (CryptoPAN moves the
	// /8 to a different anonymized /8 unless the key happens to fix it).
	dark := pop.Config().Darkspace
	rows := w.Matrix.Rows()
	inDark := 0
	for _, r := range rows {
		if dark.Contains(ipaddr.Addr(r)) {
			inDark++
		}
	}
	if inDark > len(rows)/10 {
		t.Errorf("%d/%d anonymized sources inside the real darkspace; anonymization suspect", inDark, len(rows))
	}
}

func TestSourceTableDeanonymizes(t *testing.T) {
	pop := testPopulation(t, 1000)
	tel := New(pop.Config().Darkspace, "roundtrip")
	st := pop.TelescopeStream(4, time.Unix(0, 0))
	w, _ := tel.CaptureWindowEngine(context.Background(), st, 2048, 1, 0)

	table := tel.SourceTable(w)
	if table.NRows() != w.Matrix.NRows() {
		t.Fatalf("table rows %d != matrix rows %d", table.NRows(), w.Matrix.NRows())
	}
	// Every row key must be a real population address, and packet counts
	// must sum to NV.
	known := make(map[string]bool, pop.Len())
	for i := 0; i < pop.Len(); i++ {
		known[pop.Source(i).IP.String()] = true
	}
	var sum float64
	for _, row := range table.RowKeys() {
		if !known[row] {
			t.Fatalf("table row %q is not a population source", row)
		}
		v, ok := table.Get(row, "packets")
		if !ok || !v.Numeric {
			t.Fatalf("row %q missing numeric packets", row)
		}
		sum += v.Num
	}
	if sum != float64(w.NV) {
		t.Errorf("table packet total %g != NV %d", sum, w.NV)
	}
}

// TestDeanonymizeRoundTrip: the keyed inverse undoes the capture's
// anonymization on every row of the window, and is total — an address
// the telescope never produced still has exactly one original.
func TestDeanonymizeRoundTrip(t *testing.T) {
	pop := testPopulation(t, 500)
	tel := New(pop.Config().Darkspace, "deanon")
	st := pop.TelescopeStream(4, time.Unix(0, 0))
	w, _ := tel.CaptureWindowEngine(context.Background(), st, 1024, 1, 0)
	known := make(map[ipaddr.Addr]bool, pop.Len())
	for i := 0; i < pop.Len(); i++ {
		known[pop.Source(i).IP] = true
	}
	for _, anonRow := range w.Matrix.Rows() {
		orig := tel.anon.Anonymizer().Deanonymize(ipaddr.Addr(anonRow))
		if !known[orig] {
			t.Fatalf("row %v de-anonymizes to %v, not a population source", ipaddr.Addr(anonRow), orig)
		}
		if back := tel.Anonymizer().Anonymizer().Anonymize(orig); back != ipaddr.Addr(anonRow) {
			t.Fatalf("row %v -> %v -> %v", ipaddr.Addr(anonRow), orig, back)
		}
	}
	for _, unseen := range []string{"0.0.0.1", "0.0.0.0", "255.255.255.255", "44.0.0.0", "44.255.255.255"} {
		a := ipaddr.MustParse(unseen)
		if back := tel.Anonymizer().Anonymizer().Anonymize(tel.anon.Anonymizer().Deanonymize(a)); back != a {
			t.Errorf("unseen %v round-trips to %v", a, back)
		}
	}
}

// sweepSource replays a fixed set of sources against destinations drawn
// fresh from the darkspace for every packet: the traffic shape that
// used to grow the anonymization memo by a window's worth of entries
// per window.
type sweepSource struct {
	rng     *rand.Rand
	sources []ipaddr.Addr
	dark    ipaddr.Prefix
	n       int
}

func (s *sweepSource) NextBatch(dst []pcap.Packet) int {
	for i := range dst {
		dst[i] = pcap.Packet{
			Time: time.Unix(int64(s.n), 0),
			Src:  s.sources[s.n%len(s.sources)],
			Dst:  s.dark.Nth(uint64(s.rng.Int63n(int64(s.dark.Size())))),
		}
		s.n++
	}
	return len(dst)
}

// TestDestinationSweepGrowsMemoBySourcesOnly is the bound a resident
// telescope lives under: over any number of windows of never-repeating
// destinations, on every capture path, the memo holds exactly the
// distinct sources seen and nothing else.
func TestDestinationSweepGrowsMemoBySourcesOnly(t *testing.T) {
	dark := ipaddr.MustParsePrefix("44.0.0.0/8")
	const nv, perWindow = 2048, 100
	captures := map[string]func(*Telescope, PacketSource) error{
		"engine-w1": func(tel *Telescope, src PacketSource) error {
			_, err := tel.CaptureWindowEngine(context.Background(), src, nv, 1, 256)
			return err
		},
		"engine-w4": func(tel *Telescope, src PacketSource) error {
			_, err := tel.CaptureWindowEngine(context.Background(), src, nv, 4, 256)
			return err
		},
	}
	for name, capture := range captures {
		tel := New(dark, "sweep", WithLeafSize(256))
		rng := rand.New(rand.NewSource(5))
		seen := make(map[ipaddr.Addr]bool)
		for w := 0; w < 6; w++ {
			// Each window brings perWindow new sources and keeps the old
			// ones; every destination is new.
			src := &sweepSource{rng: rng, dark: dark}
			for i := 0; i < (w+1)*perWindow; i++ {
				a := ipaddr.Addr(0x0b000000 + i*7919)
				src.sources = append(src.sources, a)
				seen[a] = true
			}
			if err := capture(tel, src); err != nil {
				t.Fatalf("%s window %d: %v", name, w, err)
			}
			if got := tel.Anonymizer().Len(); got != len(seen) {
				t.Fatalf("%s: memo holds %d addresses after window %d, want the %d distinct sources",
					name, got, w, len(seen))
			}
		}
	}
}

// TestLeavesAgreeAcrossCapturePaths: at one shard a window cuts
// ceil(nv/leafSize) leaves, whether or not the last leaf is full, and
// however the engine slices the stream into read batches — one packet,
// a partial leaf, or the default batch.
func TestLeavesAgreeAcrossCapturePaths(t *testing.T) {
	dark := ipaddr.MustParsePrefix("44.0.0.0/8")
	for _, tc := range []struct{ nv, want int }{{300, 3}, {256, 2}} {
		var first *Window
		for _, batch := range []int{1, 64, 0} {
			src := &sweepSource{rng: rand.New(rand.NewSource(9)), dark: dark, sources: []ipaddr.Addr{0x0b000001, 0x0b000002}}
			w, err := New(dark, "leaves", WithLeafSize(128)).CaptureWindowEngine(context.Background(), src, tc.nv, 1, batch)
			if err != nil {
				t.Fatal(err)
			}
			if w.NV != tc.nv || w.Leaves != tc.want {
				t.Errorf("nv=%d batch=%d: captured %d packets in %d leaves, want %d leaves",
					tc.nv, batch, w.NV, w.Leaves, tc.want)
			}
			if first == nil {
				first = w
			} else if !hypersparse.Equal(w.Matrix, first.Matrix) {
				t.Errorf("nv=%d batch=%d: matrix differs from batch 1", tc.nv, batch)
			}
		}
	}
}

// failingSource is an Errorer that is not a *ReaderSource: n valid
// packets, then the stream ends with an error held back for Err, the
// way a reader wrapped by anything at all behaves.
type failingSource struct {
	n   int
	err error
}

func (s *failingSource) NextBatch(dst []pcap.Packet) int {
	for i := range dst {
		if s.n == 0 {
			s.err = errors.New("wrapped reader: truncated capture")
			return i
		}
		s.n--
		dst[i] = pcap.Packet{Time: time.Unix(int64(1000-s.n), 0), Src: 0x0b000001, Dst: ipaddr.MustParse("44.1.2.3")}
	}
	return len(dst)
}

func (s *failingSource) Err() error { return s.err }

// TestEveryCaptureSurfacesSourceError: a source's held-back read error
// must fail the capture, whatever the source's concrete type — never a
// short window with a nil error.
func TestEveryCaptureSurfacesSourceError(t *testing.T) {
	tel := New(ipaddr.MustParsePrefix("44.0.0.0/8"), "errorer", WithLeafSize(64))
	for _, workers := range []int{1, 4} {
		if _, err := tel.CaptureWindowEngine(context.Background(), &failingSource{n: 100}, 1<<20, workers, 0); err == nil {
			t.Errorf("workers=%d: CaptureWindowEngine returned a truncated window with a nil error", workers)
		}
	}
}

func TestPcapRoundTripThroughTelescope(t *testing.T) {
	// Full wire-format path: radiation -> pcap file -> reader -> telescope.
	pop := testPopulation(t, 500)
	st := pop.TelescopeStream(4, time.Unix(1_592_395_200, 0))
	var buf bytes.Buffer
	pw, err := pcap.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var pkt pcap.Packet
	emitted := 0
	for st.Next(&pkt) && emitted < 3000 {
		if err := pw.WritePacket(&pkt); err != nil {
			t.Fatal(err)
		}
		emitted++
	}
	pw.Flush()

	pr, err := pcap.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	tel := New(pop.Config().Darkspace, "pcap-path")
	w, err := tel.CaptureWindowEngine(context.Background(), &ReaderSource{R: pr}, 2000, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if w.NV+w.Dropped > emitted {
		t.Fatalf("accounted packets %d > written %d", w.NV+w.Dropped, emitted)
	}
	if w.NV == 0 {
		t.Fatal("pcap path captured nothing")
	}
	if w.Matrix.Sum() != float64(w.NV) {
		t.Error("NV not conserved through pcap round trip")
	}
}

func BenchmarkCaptureWindow64k(b *testing.B) {
	c := radiation.DefaultConfig()
	c.NumSources = 50000
	pop, _ := radiation.NewPopulation(c)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tel := New(c.Darkspace, "bench")
		st := pop.TelescopeStream(4, time.Unix(0, 0))
		if _, err := tel.CaptureWindowEngine(context.Background(), st, 1<<16, 1, 0); err != nil {
			b.Fatal(err)
		}
	}
}
