package pcap

import (
	"bytes"
	"io"
	"testing"
	"time"

	"repro/internal/testkit"
)

// buildCapture writes the given frames (raw bytes with timestamps) into
// an in-memory pcap file.
func buildCapture(t testing.TB, frames [][]byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, fr := range frames {
		if err := w.writeFrame(time.Unix(1592395200+int64(i), 0), fr); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// packetCapture marshals n sample packets into an in-memory pcap file.
func packetCapture(t testing.TB, n int) []byte {
	t.Helper()
	frames := make([][]byte, n)
	for i := range frames {
		fr, err := samplePacket(i).marshalFrame()
		if err != nil {
			t.Fatal(err)
		}
		frames[i] = fr
	}
	return buildCapture(t, frames)
}

// drainBatch reads the whole stream through NextBatch with the given
// slab size, returning the packet sequence and terminal error.
func drainBatch(t *testing.T, data []byte, slabSize int) ([]Packet, error) {
	t.Helper()
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	slab := make([]Packet, slabSize)
	var out []Packet
	for {
		n, err := r.NextBatch(slab)
		out = append(out, slab[:n]...)
		if n == 0 {
			return out, err
		}
	}
}

// drainPackets reads the whole stream through the per-packet oracle.
func drainPackets(t *testing.T, data []byte) ([]Packet, error) {
	t.Helper()
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var out []Packet
	for {
		var p Packet
		if err := r.readPacket(&p); err != nil {
			return out, err
		}
		out = append(out, p)
	}
}

func sameStreams(t *testing.T, got, want []Packet, gotErr, wantErr error, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: decoded %d packets, oracle decoded %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: packet %d mismatch:\n  batch  %+v\n  oracle %+v", label, i, got[i], want[i])
		}
	}
	if (gotErr == nil) != (wantErr == nil) || (gotErr == io.EOF) != (wantErr == io.EOF) {
		t.Fatalf("%s: terminal error %v, oracle %v", label, gotErr, wantErr)
	}
}

// TestNextBatchMatchesReadPacket is the differential contract: over
// clean files, files with non-IPv4 records interleaved, oversized
// frames that overflow the zero-copy read-ahead buffer, and truncated
// tails, NextBatch at every slab size yields exactly the readPacket
// oracle's packet sequence and terminal error class.
func TestNextBatchMatchesReadPacket(t *testing.T) {
	arp := make([]byte, 64)
	arp[12], arp[13] = 0x08, 0x06

	// A frame bigger than the 64 KiB bufio read-ahead buffer: forces
	// readFrameZC onto the copying fallback path mid-stream.
	big := make([]byte, 100_000)
	smallFr, err := samplePacket(7).marshalFrame()
	if err != nil {
		t.Fatal(err)
	}
	copy(big, smallFr)

	var mixed [][]byte
	for i := 0; i < 300; i++ {
		fr, err := samplePacket(i).marshalFrame()
		if err != nil {
			t.Fatal(err)
		}
		mixed = append(mixed, fr)
		if i%17 == 0 {
			mixed = append(mixed, arp)
		}
		if i == 150 {
			mixed = append(mixed, big)
		}
	}

	clean := packetCapture(t, 257)
	mixedCap := buildCapture(t, mixed)
	cases := map[string][]byte{
		"clean":          clean,
		"mixed":          mixedCap,
		"partial_header": append(append([]byte(nil), clean...), 0, 1, 2, 3, 4, 5, 6, 7),
		"truncated_body": mixedCap[:len(mixedCap)-3],
		"empty":          packetCapture(t, 0),
	}
	for name, data := range cases {
		want, wantErr := drainPackets(t, data)
		for _, slab := range []int{1, 3, 64, 1000} {
			got, gotErr := drainBatch(t, data, slab)
			sameStreams(t, got, want, gotErr, wantErr, name)
		}
	}
}

// TestNextBatchShortThenSticky: a stream that dies mid-record must
// first hand back the packets already decoded (short batch, nil error)
// and then report the same error on every subsequent call.
func TestNextBatchShortThenSticky(t *testing.T) {
	data := packetCapture(t, 10)
	data = data[:len(data)-3] // truncate the last record's body
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	slab := make([]Packet, 64)
	n, err := r.NextBatch(slab)
	if n != 9 || err != nil {
		t.Fatalf("first call: n=%d err=%v, want 9 packets and nil (deferred error)", n, err)
	}
	n, err = r.NextBatch(slab)
	if n != 0 || err == nil || err == io.EOF {
		t.Fatalf("second call: n=%d err=%v, want 0 and the truncation error", n, err)
	}
	first := err
	if n, err = r.NextBatch(slab); n != 0 || err != first {
		t.Fatalf("third call: n=%d err=%v, want sticky %v", n, err, first)
	}
}

// TestNextBatchPacketsDoNotAlias pins the ownership contract: packets
// decoded by NextBatch are plain values, so reading the rest of the
// file (which recycles the Reader's internal buffers) must not disturb
// a retained slab.
func TestNextBatchPacketsDoNotAlias(t *testing.T) {
	data := packetCapture(t, 100)
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	slab := make([]Packet, 8)
	n, err := r.NextBatch(slab)
	if n != 8 || err != nil {
		t.Fatalf("NextBatch: n=%d err=%v", n, err)
	}
	saved := make([]Packet, 8)
	copy(saved, slab)
	for {
		if n, _ := r.NextBatch(make([]Packet, 16)); n == 0 {
			break
		}
	}
	for i := range saved {
		if slab[i] != saved[i] {
			t.Fatalf("packet %d mutated by later reads: %+v vs %+v", i, slab[i], saved[i])
		}
	}
}

// TestNextBatchZeroAlloc gates the steady-state slab decode at zero
// allocations per call.
func TestNextBatchZeroAlloc(t *testing.T) {
	if testkit.RaceEnabled {
		t.Skip("allocation accounting is perturbed by the race detector")
	}
	data := packetCapture(t, 4096)
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	slab := make([]Packet, 64)
	if n, err := r.NextBatch(slab); n != len(slab) || err != nil {
		t.Fatalf("warmup: n=%d err=%v", n, err)
	}
	allocs := testing.AllocsPerRun(40, func() {
		if n, _ := r.NextBatch(slab); n != len(slab) {
			t.Fatal("stream ran dry mid-measurement")
		}
	})
	if allocs != 0 {
		t.Fatalf("NextBatch allocates %.1f per call at steady state, want 0", allocs)
	}
}

func BenchmarkPcapNextBatch(b *testing.B) {
	data := packetCapture(b, 2000)
	slab := make([]Packet, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		total := 0
		for {
			n, _ := r.NextBatch(slab)
			if n == 0 {
				break
			}
			total += n
		}
		if total != 2000 {
			b.Fatalf("decoded %d packets, want 2000", total)
		}
	}
}

func BenchmarkPcapReadPacket(b *testing.B) {
	data := packetCapture(b, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		var p Packet
		total := 0
		for r.readPacket(&p) == nil {
			total++
		}
		if total != 2000 {
			b.Fatalf("decoded %d packets, want 2000", total)
		}
	}
}
