package radiation_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ipaddr"
	"repro/internal/pcap"
	"repro/internal/radiation"
	"repro/internal/scenario"
	"repro/internal/stats"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.sha256 from the current generator")

// goldenStream is one stream the golden pins: a population and the
// fractional month and start time of one window.
type goldenStream struct {
	name string
	cfg  core.Config
	ts   int // index into cfg.SnapshotTimes
}

// studyBatchConfig is the benchmark's study_batch shape at seed 1:
// 2^18-packet windows over 100k sources, PaperZM(2^16), BrightLog2 9.
func studyBatchConfig() core.Config {
	c := core.DefaultConfig()
	c.NV = 1 << 18
	c.LeafSize = 1 << 14
	c.Radiation.Seed = 1
	c.Radiation.NumSources = 100000
	c.Radiation.ZM = stats.PaperZM(1 << 16)
	c.Radiation.BrightLog2 = 9
	return c
}

// goldenStreams lists the study_batch shape (100k sources, PaperZM(2^16),
// BrightLog2 9, seed 1, the five paper snapshot times) and the
// radiation mix of every in-memory scenario at its snapshot months.
func goldenStreams(t *testing.T) []goldenStream {
	var out []goldenStream
	batch := studyBatchConfig()
	for i := range batch.SnapshotTimes {
		out = append(out, goldenStream{name: "study_batch", cfg: batch, ts: i})
	}
	for _, file := range []string{
		"z00001-census-baseline.yaml",
		"z00002-horizontal-scan.yaml",
		"z00003-vertical-scan.yaml",
		"z00004-ddos-backscatter.yaml",
		"z00005-beam-drift.yaml",
		"z00006-ipv6-sources.yaml",
	} {
		sc, err := scenario.Load(filepath.Join("..", "..", "scenarios", file))
		if err != nil {
			t.Fatal(err)
		}
		for i := range sc.Config.SnapshotTimes {
			out = append(out, goldenStream{name: sc.Case, cfg: sc.Config, ts: i})
		}
	}
	return out
}

// streamDigest drains the stream in full and hashes every field of
// every packet, the time as Unix nanoseconds plus its location's name.
func streamDigest(pop *radiation.Population, cfg core.Config, ts int) (string, int) {
	at := cfg.SnapshotTimes[ts]
	st := pop.TelescopeStream(cfg.MonthOf(at), at)
	h := sha256.New()
	slab := make([]pcap.Packet, 1024)
	var rec []byte
	n := 0
	for {
		got := st.NextBatch(slab)
		if got == 0 {
			break
		}
		for i := range slab[:got] {
			p := &slab[i]
			rec = binary.LittleEndian.AppendUint64(rec[:0], uint64(p.Time.UnixNano()))
			rec = append(rec, p.Time.Location().String()...)
			rec = append(rec, 0)
			rec = binary.LittleEndian.AppendUint32(rec, uint32(p.Src))
			rec = binary.LittleEndian.AppendUint32(rec, uint32(p.Dst))
			rec = binary.LittleEndian.AppendUint16(rec, p.SrcPort)
			rec = binary.LittleEndian.AppendUint16(rec, p.DstPort)
			rec = append(rec, byte(p.Proto), byte(p.Flags), p.TTL)
			rec = binary.LittleEndian.AppendUint64(rec, uint64(p.Length))
			h.Write(rec)
		}
		n += got
	}
	return fmt.Sprintf("%x", h.Sum(nil)), n
}

// TestStreamGolden pins the bytes of the synthetic telescope stream:
// any change to the generator's draws, their order or the packet order
// shows as a digest mismatch. Rewrite the file with -update only when a
// change to the stream is intended.
func TestStreamGolden(t *testing.T) {
	path := filepath.Join("testdata", "streams.sha256")
	var lines []string
	pops := map[string]*radiation.Population{}
	for _, g := range goldenStreams(t) {
		pop := pops[g.name]
		if pop == nil {
			var err error
			if pop, err = radiation.NewPopulation(g.cfg.Radiation); err != nil {
				t.Fatal(err)
			}
			pops[g.name] = pop
		}
		sum, n := streamDigest(pop, g.cfg, g.ts)
		lines = append(lines, fmt.Sprintf("%s %s %d %s", g.name, g.cfg.SnapshotTimes[g.ts].UTC().Format("20060102-150405"), n, sum))
	}
	checkGolden(t, path, lines)
}

// checkGolden compares lines with the golden file at path, one line
// each, or rewrites the file under -update.
func checkGolden(t *testing.T, path string, lines []string) {
	t.Helper()
	if *updateGolden {
		if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	for sc := bufio.NewScanner(f); sc.Scan(); {
		want = append(want, sc.Text())
	}
	if len(want) != len(lines) {
		t.Fatalf("%s holds %d lines, the test computes %d", path, len(want), len(lines))
	}
	for i := range lines {
		if lines[i] != want[i] {
			t.Errorf("line %d:\n got %s\nwant %s", i, lines[i], want[i])
		}
	}
}

// goldenMonths lists the populations whose honeyfarm months the month
// golden pins: the study_batch shape and each in-memory scenario's
// radiation config, one entry a population.
func goldenMonths(t *testing.T) []goldenStream {
	var out []goldenStream
	for _, g := range goldenStreams(t) {
		if len(out) == 0 || out[len(out)-1].name != g.name {
			out = append(out, g)
		}
	}
	return out
}

// monthDigest hashes every field of every observation: the whole
// source, the packet count, and both times as Unix nanoseconds plus
// their location's name.
func monthDigest(obs []radiation.Observation) string {
	h := sha256.New()
	var rec []byte
	for i := range obs {
		o := &obs[i]
		s := &o.Src
		rec = binary.LittleEndian.AppendUint64(rec[:0], uint64(s.ID))
		rec = binary.LittleEndian.AppendUint32(rec, uint32(s.IP))
		rec = binary.LittleEndian.AppendUint64(rec, math.Float64bits(s.Brightness))
		rec = binary.LittleEndian.AppendUint64(rec, math.Float64bits(s.Anchor))
		rec = binary.LittleEndian.AppendUint64(rec, uint64(s.Type))
		rec = append(rec, flag01(s.Persistent), flag01(s.Vertical), flag01(s.V6))
		rec = append(rec, s.IP6[:]...)
		rec = binary.LittleEndian.AppendUint64(rec, uint64(o.Packets))
		for _, at := range []time.Time{o.FirstSeen, o.LastSeen} {
			rec = binary.LittleEndian.AppendUint64(rec, uint64(at.UnixNano()))
			rec = append(rec, at.Location().String()...)
			rec = append(rec, 0)
		}
		h.Write(rec)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func flag01(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// TestHoneyfarmMonthGolden pins every observation of every month of the
// golden populations: any change to the honeyfarm's visibility draws,
// the observations' order or their metadata shows as a digest mismatch.
// Rewrite the file with -update only when such a change is intended.
// It also holds the addresses-only projection of the visibility scan
// to the observations: HoneyfarmAddrs is HoneyfarmMonth's Src.IP list,
// in order.
func TestHoneyfarmMonthGolden(t *testing.T) {
	var lines []string
	for _, g := range goldenMonths(t) {
		pop, err := radiation.NewPopulation(g.cfg.Radiation)
		if err != nil {
			t.Fatal(err)
		}
		for m := range g.cfg.Radiation.Months {
			start := g.cfg.StudyStart.AddDate(0, m, 0)
			obs := pop.HoneyfarmMonth(m, start)
			lines = append(lines, fmt.Sprintf("%s %s %d %s", g.name, start.Format("2006-01"), len(obs), monthDigest(obs)))
			want := make([]ipaddr.Addr, len(obs))
			for i := range obs {
				want[i] = obs[i].Src.IP
			}
			if got := pop.HoneyfarmAddrs(m); !slices.Equal(got, want) {
				t.Errorf("%s month %d: HoneyfarmAddrs gives %d addresses, not HoneyfarmMonth's %d in order", g.name, m, len(got), len(want))
			}
		}
	}
	checkGolden(t, filepath.Join("testdata", "months.sha256"), lines)
}

// BenchmarkStudyShapeStreams opens and reads the five study_batch
// windows a study's snapshots read: NV packets each, in LeafSize slabs.
func BenchmarkStudyShapeStreams(b *testing.B) {
	cfg := studyBatchConfig()
	pop, err := radiation.NewPopulation(cfg.Radiation)
	if err != nil {
		b.Fatal(err)
	}
	slab := make([]pcap.Packet, cfg.LeafSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ts := range cfg.SnapshotTimes {
			st := pop.TelescopeStream(cfg.MonthOf(ts), ts)
			for n := 0; n < cfg.NV; {
				got := st.NextBatch(slab)
				if got == 0 {
					b.Fatalf("stream at %v exhausted at %d packets", ts, n)
				}
				n += got
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(cfg.SnapshotTimes)*cfg.NV), "ns/pkt")
}

// BenchmarkHoneyfarmMonth is one honeyfarm month at the study_batch
// shape, as the store-backed month reads it (observations) and as the
// in-memory month does (addrs).
func BenchmarkHoneyfarmMonth(b *testing.B) {
	cfg := studyBatchConfig()
	pop, err := radiation.NewPopulation(cfg.Radiation)
	if err != nil {
		b.Fatal(err)
	}
	months := cfg.Radiation.Months
	pop.HoneyfarmMonth(0, cfg.StudyStart) // the visibility records are built once, untimed
	for _, bc := range []struct {
		name string
		run  func(m int)
	}{
		{"observations", func(m int) { pop.HoneyfarmMonth(m, cfg.StudyStart.AddDate(0, m, 0)) }},
		{"addrs", func(m int) { pop.HoneyfarmAddrs(m) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				bc.run(i % months)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*pop.Len()), "ns/source")
		})
	}
}
