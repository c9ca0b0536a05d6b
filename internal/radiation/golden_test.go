package radiation_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/pcap"
	"repro/internal/radiation"
	"repro/internal/scenario"
	"repro/internal/stats"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/streams.sha256 from the current generator")

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
		t.Fatalf("%s holds %d streams, the test drains %d", path, len(want), len(lines))
	}
	for i := range lines {
		if lines[i] != want[i] {
			t.Errorf("stream %d:\n got %s\nwant %s", i, lines[i], want[i])
		}
	}
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
