package pcap

import (
	"bytes"
	"io"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/ipaddr"
)

func samplePacket(i int) *Packet {
	protos := []IPProto{ProtoTCP, ProtoUDP, ProtoICMP}
	return &Packet{
		Time:    time.Unix(1592395200+int64(i), int64(i%1000)*1000).UTC(),
		Src:     ipaddr.Addr(0x0a000000 + uint32(i)),
		Dst:     ipaddr.Addr(0x2c000000 + uint32(i)*3),
		Proto:   protos[i%3],
		SrcPort: uint16(1024 + i),
		DstPort: uint16(i % 65536),
		Flags:   FlagSYN,
		TTL:     64,
		Length:  60 + i%100,
	}
}

func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	for i := 0; i < 50; i++ {
		in := samplePacket(i)
		frame, err := in.marshalFrame()
		if err != nil {
			t.Fatalf("marshal %d: %v", i, err)
		}
		var out Packet
		if err := out.unmarshalFrame(frame); err != nil {
			t.Fatalf("unmarshal %d: %v", i, err)
		}
		if out.Src != in.Src || out.Dst != in.Dst || out.Proto != in.Proto {
			t.Fatalf("addr/proto mismatch: %+v vs %+v", out, in)
		}
		if in.Proto != ProtoICMP {
			if out.SrcPort != in.SrcPort || out.DstPort != in.DstPort {
				t.Fatalf("port mismatch: %+v vs %+v", out, in)
			}
		}
		if in.Proto == ProtoTCP && out.Flags != in.Flags {
			t.Fatalf("flags mismatch: %v vs %v", out.Flags, in.Flags)
		}
		if out.TTL != in.TTL {
			t.Fatalf("ttl mismatch")
		}
	}
}

func TestMarshalChecksumValid(t *testing.T) {
	for i := 0; i < 20; i++ {
		frame, err := samplePacket(i).marshalFrame()
		if err != nil {
			t.Fatal(err)
		}
		if checksum(frame[ethHeaderLen:ethHeaderLen+ipv4HeaderLen]) != 0 {
			t.Fatalf("packet %d: invalid IPv4 checksum", i)
		}
	}
}

func TestMarshalRejectsOversize(t *testing.T) {
	p := samplePacket(0)
	p.Length = 70000
	if _, err := p.marshalFrame(); err == nil {
		t.Error("oversize packet marshaled without error")
	}
}

func TestMarshalRejectsUnknownProto(t *testing.T) {
	p := samplePacket(0)
	p.Proto = 200
	if _, err := p.marshalFrame(); err == nil {
		t.Error("unknown protocol marshaled without error")
	}
}

func TestUnmarshalErrors(t *testing.T) {
	var p Packet
	if err := p.unmarshalFrame(nil); err != ErrTruncated {
		t.Errorf("nil frame: got %v, want ErrTruncated", err)
	}
	frame, _ := samplePacket(0).marshalFrame()
	if err := p.unmarshalFrame(frame[:20]); err != ErrTruncated {
		t.Errorf("short frame: got %v, want ErrTruncated", err)
	}
	arp := make([]byte, 64)
	arp[12], arp[13] = 0x08, 0x06 // EtherType ARP
	if err := p.unmarshalFrame(arp); err != ErrNotIPv4 {
		t.Errorf("ARP frame: got %v, want ErrNotIPv4", err)
	}
}

func TestAddrRoundTripProperty(t *testing.T) {
	f := func(src, dst uint32, sport, dport uint16) bool {
		in := Packet{
			Time: time.Unix(0, 0), Src: ipaddr.Addr(src), Dst: ipaddr.Addr(dst),
			Proto: ProtoUDP, SrcPort: sport, DstPort: dport, TTL: 32, Length: 64,
		}
		frame, err := in.marshalFrame()
		if err != nil {
			return false
		}
		var out Packet
		if err := out.unmarshalFrame(frame); err != nil {
			return false
		}
		return out.Src == in.Src && out.Dst == in.Dst &&
			out.SrcPort == in.SrcPort && out.DstPort == in.DstPort
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFileRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	for i := 0; i < n; i++ {
		if err := w.WritePacket(samplePacket(i)); err != nil {
			t.Fatal(err)
		}
	}
	if w.Count() != n {
		t.Fatalf("Count() = %d, want %d", w.Count(), n)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		var p Packet
		if err := r.readPacket(&p); err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
		want := samplePacket(i)
		if p.Src != want.Src || p.Dst != want.Dst || p.Proto != want.Proto {
			t.Fatalf("packet %d mismatch: %+v vs %+v", i, p, want)
		}
		if !p.Time.Equal(want.Time) {
			t.Fatalf("packet %d time %v, want %v", i, p.Time, want.Time)
		}
	}
	var p Packet
	if err := r.readPacket(&p); err != io.EOF {
		t.Fatalf("after last packet: got %v, want io.EOF", err)
	}
}

func TestReaderBadMagic(t *testing.T) {
	if _, err := NewReader(bytes.NewReader(make([]byte, 24))); err != ErrBadMagic {
		t.Errorf("got %v, want ErrBadMagic", err)
	}
}

func TestReaderSkipsNonIPv4(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	arp := make([]byte, 64)
	arp[12], arp[13] = 0x08, 0x06
	if err := w.writeFrame(time.Unix(0, 0), arp); err != nil {
		t.Fatal(err)
	}
	if err := w.WritePacket(samplePacket(1)); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	r, _ := NewReader(bytes.NewReader(buf.Bytes()))
	var p Packet
	if err := r.readPacket(&p); err != nil {
		t.Fatal(err)
	}
	if p.Src != samplePacket(1).Src {
		t.Error("reader did not skip the ARP frame")
	}
}

func TestBswapReader(t *testing.T) {
	// Build a big-endian header by hand and confirm detection.
	var buf bytes.Buffer
	hdr := make([]byte, 24)
	hdr[0], hdr[1], hdr[2], hdr[3] = 0xa1, 0xb2, 0xc3, 0xd4 // big-endian magic
	hdr[23] = linkEthernet
	buf.Write(hdr)
	if _, err := NewReader(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("big-endian pcap rejected: %v", err)
	}
}

func TestTCPFlagsString(t *testing.T) {
	if s := (FlagSYN | FlagACK).String(); s != "SYN|ACK" {
		t.Errorf("got %q", s)
	}
	if s := TCPFlags(0).String(); s != "none" {
		t.Errorf("got %q", s)
	}
}

func TestProtoString(t *testing.T) {
	if ProtoTCP.String() != "tcp" || ProtoUDP.String() != "udp" || ProtoICMP.String() != "icmp" {
		t.Error("canonical names wrong")
	}
	if IPProto(99).String() != "proto(99)" {
		t.Errorf("got %q", IPProto(99).String())
	}
}

func BenchmarkMarshalFrame(b *testing.B) {
	p := samplePacket(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p.marshalFrame(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFileWriteRead(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	pkts := make([]*Packet, 1000)
	for i := range pkts {
		pkts[i] = samplePacket(rng.Intn(1 << 16))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		w, _ := NewWriter(&buf)
		for _, p := range pkts {
			if err := w.WritePacket(p); err != nil {
				b.Fatal(err)
			}
		}
		w.Flush()
		r, _ := NewReader(bytes.NewReader(buf.Bytes()))
		var p Packet
		n := 0
		for r.readPacket(&p) == nil {
			n++
		}
		if n != len(pkts) {
			b.Fatalf("read %d packets, want %d", n, len(pkts))
		}
	}
}
