package pcap

import (
	"bytes"
	"io"
	"testing"
	"time"
)

// Fuzz harnesses: the decoders must never panic on arbitrary input, and
// whatever they accept must re-encode consistently.

func FuzzUnmarshalFrame(f *testing.F) {
	// Seed with valid frames of each protocol and some junk.
	for i := 0; i < 3; i++ {
		frame, err := samplePacket(i).marshalFrame()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	f.Add([]byte{})
	f.Add(make([]byte, 13))
	f.Add(bytes.Repeat([]byte{0xff}, 100))

	f.Fuzz(func(t *testing.T, data []byte) {
		var p Packet
		if err := p.unmarshalFrame(data); err != nil {
			return // rejection is fine; panics are not
		}
		// Accepted frames must re-marshal (length may have been padded).
		if p.Proto == ProtoTCP || p.Proto == ProtoUDP || p.Proto == ProtoICMP {
			if p.Length > 65535 {
				t.Fatalf("accepted frame with impossible length %d", p.Length)
			}
		}
	})
}

func FuzzReader(f *testing.F) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := w.WritePacket(samplePacket(i)); err != nil {
			f.Fatal(err)
		}
	}
	w.Flush()
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:30])
	f.Add([]byte("not a pcap file at all, just text"))

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		var p Packet
		for i := 0; i < 1000; i++ {
			if err := r.readPacket(&p); err != nil {
				return
			}
			if p.Time.After(time.Unix(1<<33, 0)) {
				// Timestamps are attacker-controlled; just ensure no panic.
				_ = p.Time
			}
		}
	})
}

// FuzzReaderBatch is the batch decoder's differential harness: on
// arbitrary bytes, NextBatch (zero-copy slab path) must decode exactly
// the packet sequence of a readPacket loop (copying per-record oracle),
// end with the same error class, and never panic. The slab size is
// derived from the input so the fuzzer also explores batch-boundary
// positions.
func FuzzReaderBatch(f *testing.F) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		f.Fatal(err)
	}
	arp := make([]byte, 64)
	arp[12], arp[13] = 0x08, 0x06
	for i := 0; i < 5; i++ {
		if err := w.WritePacket(samplePacket(i)); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.writeFrame(time.Unix(0, 0), arp); err != nil {
		f.Fatal(err)
	}
	w.Flush()
	f.Add(buf.Bytes(), uint8(4))
	f.Add(buf.Bytes()[:len(buf.Bytes())-7], uint8(1))
	f.Add([]byte("not a pcap file at all, just text"), uint8(16))

	f.Fuzz(func(t *testing.T, data []byte, slabHint uint8) {
		slabSize := int(slabHint)%64 + 1
		br, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		pr, err := NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("oracle reader rejected what batch reader accepted: %v", err)
		}
		slab := make([]Packet, slabSize)
		const limit = 4096
		decoded := 0
		var batchErr error
		for decoded < limit {
			n, err := br.NextBatch(slab)
			if n == 0 {
				batchErr = err
				break
			}
			for i := 0; i < n; i++ {
				var want Packet
				if err := pr.readPacket(&want); err != nil {
					t.Fatalf("batch decoded packet %d but oracle errored: %v", decoded, err)
				}
				if slab[i] != want {
					t.Fatalf("packet %d mismatch:\n  batch  %+v\n  oracle %+v", decoded, slab[i], want)
				}
				decoded++
			}
		}
		if decoded >= limit {
			return // both streams still healthy at the cap; good enough
		}
		var rest Packet
		oracleErr := pr.readPacket(&rest)
		if oracleErr == nil {
			t.Fatalf("batch ended with %v after %d packets but oracle decoded another", batchErr, decoded)
		}
		if (batchErr == io.EOF) != (oracleErr == io.EOF) {
			t.Fatalf("terminal error class mismatch: batch %v, oracle %v", batchErr, oracleErr)
		}
	})
}
