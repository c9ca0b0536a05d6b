package radiation

import (
	"slices"
	"testing"
	"time"

	"repro/internal/pcap"
)

// mergeOracle drains a stream the plainest way: each packet comes from
// the live train with the least (next time, train index), found by a
// linear scan, through the stream's own emission step. The chunked
// generator must emit exactly its packets in exactly its order.
type mergeOracle struct {
	st *Stream // an unread stream: its trains, bogon rng and packet writer
}

func (o *mergeOracle) next(pkt *pcap.Packet) bool {
	best := -1
	for i := range o.st.trains {
		tr := &o.st.trains[i]
		if tr.remaining > 0 && (best < 0 || tr.nextTime < o.st.trains[best].nextTime) {
			best = i
		}
	}
	if best < 0 {
		return false
	}
	tr := &o.st.trains[best]
	at := tr.nextTime
	var ev event
	o.st.step(tr, &ev)
	o.st.packet(pkt, at, &ev)
	return true
}

// oracleBatchSizes are the NextBatch sizes a fuzz byte picks from: empty
// and single-packet reads, and reads that end just short of, on and
// just past a chunk's worth of packets.
var oracleBatchSizes = []int{0, 1, 2, 7, 64, 1024, chunkPackets - 1, chunkPackets, chunkPackets + 1, 2*chunkPackets + 3}

// FuzzStreamMatchesMergeOracle drains one stream by NextBatch calls of
// the fuzzed sizes and diffs every packet, and the stream's accounting,
// against the merge oracle over a second stream of the same window.
func FuzzStreamMatchesMergeOracle(f *testing.F) {
	f.Add(int64(1), uint16(2000), uint8(1), uint8(0), uint8(0), uint8(72), []byte{9})
	f.Add(int64(42), uint16(1500), uint8(40), uint8(255), uint8(0), uint8(40), []byte{0, 1, 7, 8, 6, 3})
	f.Add(int64(7), uint16(1999), uint8(0), uint8(128), uint8(128), uint8(200), []byte{1, 1, 2, 0, 5})
	f.Add(int64(-3), uint16(1), uint8(255), uint8(0), uint8(255), uint8(0), []byte{})
	f.Fuzz(func(t *testing.T, seed int64, sources uint16, bogon, vertical, v6, month uint8, sizes []byte) {
		c := DefaultConfig()
		c.Seed = seed
		c.NumSources = 1 + int(sources)%2000
		c.BogonRate = 0.5 * float64(bogon) / 255
		c.VerticalScan = float64(vertical) / 255
		c.V6Sources = float64(v6) / 255
		pop, err := NewPopulation(c)
		if err != nil {
			t.Fatal(err)
		}
		m := float64(month) / 16
		start := time.Date(2020, 6, 17, 12, 0, 0, 0, time.UTC)
		// The fuzzed sizes repeat until the stream is drained; a last
		// size past a chunk keeps an all-empty sequence moving.
		seq := make([]int, 0, len(sizes)+1)
		for _, b := range sizes {
			seq = append(seq, oracleBatchSizes[int(b)%len(oracleBatchSizes)])
		}
		seq = append(seq, chunkPackets+1)
		matchOracle(t, pop.TelescopeStream(m, start), &mergeOracle{st: pop.TelescopeStream(m, start)}, seq)
	})
}

// matchOracle drains st by NextBatch calls of the given sizes, repeated,
// and fails at the first packet, or count, that differs from oracle's.
// It returns the packets drained.
func matchOracle(t *testing.T, st *Stream, oracle *mergeOracle, sizes []int) []pcap.Packet {
	t.Helper()
	if st.ExpectedPackets() != oracle.st.ExpectedPackets() {
		t.Fatalf("ExpectedPackets %d, oracle %d", st.ExpectedPackets(), oracle.st.ExpectedPackets())
	}
	var got []pcap.Packet
	slab := make([]pcap.Packet, max(1, slices.Max(sizes)))
	var want pcap.Packet
	for i := 0; ; i++ {
		size := sizes[i%len(sizes)]
		n := st.NextBatch(slab[:size])
		for _, p := range slab[:n] {
			if !oracle.next(&want) {
				t.Fatalf("packet %d: the oracle is exhausted, the stream is not", len(got))
			}
			if p != want {
				t.Fatalf("packet %d differs:\nstream %+v\noracle %+v", len(got), p, want)
			}
			got = append(got, p)
		}
		if st.Emitted() != len(got) {
			t.Fatalf("Emitted %d after %d packets", st.Emitted(), len(got))
		}
		if n < size {
			break
		}
	}
	if oracle.next(&want) {
		t.Fatalf("the stream ended at %d packets, the oracle did not", len(got))
	}
	if len(got) != st.ExpectedPackets() {
		t.Fatalf("emitted %d packets, ExpectedPackets %d", len(got), st.ExpectedPackets())
	}
	if st.Next(&want) || st.NextBatch(slab) != 0 {
		t.Fatal("a drained stream emitted a packet")
	}
	return got
}

// TestStreamTiesKeepTrainOrder gives every train of a window the first
// train's clock and rng, so each emission time is shared by many trains,
// and holds the stream's tie order, train index, to the merge oracle's.
func TestStreamTiesKeepTrainOrder(t *testing.T) {
	pop, err := NewPopulation(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	tied := func() *Stream {
		st := pop.TelescopeStream(4.5, time.Unix(0, 0))
		first := st.trains[0]
		for i := range st.trains {
			st.trains[i].nextTime, st.trains[i].gapMean, st.trains[i].rng = first.nextTime, first.gapMean, first.rng
		}
		st.due = first.nextTime
		return st
	}
	got := matchOracle(t, tied(), &mergeOracle{st: tied()}, []int{1024})
	ties := 0
	for i := 1; i < len(got); i++ {
		if got[i].Time.Equal(got[i-1].Time) {
			ties++
		}
	}
	if ties < len(got)/2 {
		t.Fatalf("%d of %d packets tie with the one before; the test needs ties", ties, len(got))
	}
}
