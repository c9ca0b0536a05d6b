// Package pcap implements the libpcap capture file format and the packet
// header codecs (Ethernet II, IPv4, TCP, UDP, ICMP) that the observatory
// pipeline needs to ingest and emit raw traffic.
//
// The CAIDA Telescope consumes a continuous packet stream; this package is
// the wire-format substrate that lets the synthetic radiation generator
// write genuine capture files and lets the telescope parse them back, so
// the analysis chain exercises real packet bytes end to end.
package pcap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"repro/internal/ipaddr"
)

// IPProto identifies the transport protocol of an IPv4 packet.
type IPProto uint8

// Transport protocol numbers (IANA).
const (
	ProtoICMP IPProto = 1
	ProtoTCP  IPProto = 6
	ProtoUDP  IPProto = 17
)

// String returns the conventional protocol name.
func (p IPProto) String() string {
	switch p {
	case ProtoICMP:
		return "icmp"
	case ProtoTCP:
		return "tcp"
	case ProtoUDP:
		return "udp"
	default:
		return fmt.Sprintf("proto(%d)", uint8(p))
	}
}

// TCPFlags is the TCP control-bit field.
type TCPFlags uint8

// TCP control bits.
const (
	FlagFIN TCPFlags = 1 << iota
	FlagSYN
	FlagRST
	FlagPSH
	FlagACK
	FlagURG
)

// String renders the set flags, e.g. "SYN|ACK".
func (f TCPFlags) String() string {
	names := []struct {
		bit  TCPFlags
		name string
	}{
		{FlagFIN, "FIN"}, {FlagSYN, "SYN"}, {FlagRST, "RST"},
		{FlagPSH, "PSH"}, {FlagACK, "ACK"}, {FlagURG, "URG"},
	}
	s := ""
	for _, n := range names {
		if f&n.bit != 0 {
			if s != "" {
				s += "|"
			}
			s += n.name
		}
	}
	if s == "" {
		return "none"
	}
	return s
}

// Packet is the decoded form of a single captured IPv4 packet. The
// observatory pipeline only uses header fields; payloads carry length but
// no content.
type Packet struct {
	Time    time.Time
	Src     ipaddr.Addr
	Dst     ipaddr.Addr
	Proto   IPProto
	SrcPort uint16 // TCP/UDP only
	DstPort uint16 // TCP/UDP only
	Flags   TCPFlags
	TTL     uint8
	Length  int // total IPv4 length including headers
}

// Header sizes in bytes.
const (
	ethHeaderLen  = 14
	ipv4HeaderLen = 20
	tcpHeaderLen  = 20
	udpHeaderLen  = 8
	icmpHeaderLen = 8
)

const etherTypeIPv4 = 0x0800

// marshalFrame encodes the packet as an Ethernet II frame containing an
// IPv4 header and the transport header, padded with zero payload bytes to
// the declared length. MAC addresses are synthetic constants: a darkspace
// has no meaningful link layer.
func (p *Packet) marshalFrame() ([]byte, error) {
	transport := 0
	switch p.Proto {
	case ProtoTCP:
		transport = tcpHeaderLen
	case ProtoUDP:
		transport = udpHeaderLen
	case ProtoICMP:
		transport = icmpHeaderLen
	default:
		return nil, fmt.Errorf("pcap: cannot marshal protocol %v", p.Proto)
	}
	ipLen := p.Length
	if ipLen < ipv4HeaderLen+transport {
		ipLen = ipv4HeaderLen + transport
	}
	if ipLen > 65535 {
		return nil, fmt.Errorf("pcap: IPv4 length %d exceeds 65535", ipLen)
	}
	buf := make([]byte, ethHeaderLen+ipLen)

	// Ethernet II: dst MAC 02:00:00:00:00:02, src MAC 02:00:00:00:00:01.
	buf[0], buf[5] = 0x02, 0x02
	buf[6], buf[11] = 0x02, 0x01
	binary.BigEndian.PutUint16(buf[12:14], etherTypeIPv4)

	ip := buf[ethHeaderLen:]
	ip[0] = 0x45 // version 4, IHL 5
	binary.BigEndian.PutUint16(ip[2:4], uint16(ipLen))
	ip[8] = p.TTL
	ip[9] = uint8(p.Proto)
	src := p.Src.Octets()
	dst := p.Dst.Octets()
	copy(ip[12:16], src[:])
	copy(ip[16:20], dst[:])
	binary.BigEndian.PutUint16(ip[10:12], checksum(ip[:ipv4HeaderLen]))

	tr := ip[ipv4HeaderLen:]
	switch p.Proto {
	case ProtoTCP:
		binary.BigEndian.PutUint16(tr[0:2], p.SrcPort)
		binary.BigEndian.PutUint16(tr[2:4], p.DstPort)
		tr[12] = 5 << 4 // data offset
		tr[13] = uint8(p.Flags)
	case ProtoUDP:
		binary.BigEndian.PutUint16(tr[0:2], p.SrcPort)
		binary.BigEndian.PutUint16(tr[2:4], p.DstPort)
		binary.BigEndian.PutUint16(tr[4:6], uint16(ipLen-ipv4HeaderLen))
	case ProtoICMP:
		tr[0] = 8 // echo request
	}
	return buf, nil
}

// Errors returned by unmarshalFrame.
var (
	ErrTruncated = errors.New("pcap: truncated frame")
	ErrNotIPv4   = errors.New("pcap: not an IPv4 frame")
)

// unmarshalFrame decodes an Ethernet II frame into p. Non-IPv4 frames
// return ErrNotIPv4; frames too short for their declared headers return
// ErrTruncated.
func (p *Packet) unmarshalFrame(buf []byte) error {
	if len(buf) < ethHeaderLen {
		return ErrTruncated
	}
	if binary.BigEndian.Uint16(buf[12:14]) != etherTypeIPv4 {
		return ErrNotIPv4
	}
	ip := buf[ethHeaderLen:]
	if len(ip) < ipv4HeaderLen {
		return ErrTruncated
	}
	if ip[0]>>4 != 4 {
		return ErrNotIPv4
	}
	ihl := int(ip[0]&0x0f) * 4
	if ihl < ipv4HeaderLen || len(ip) < ihl {
		return ErrTruncated
	}
	p.Length = int(binary.BigEndian.Uint16(ip[2:4]))
	p.TTL = ip[8]
	p.Proto = IPProto(ip[9])
	p.Src = ipaddr.FromOctets([4]byte{ip[12], ip[13], ip[14], ip[15]})
	p.Dst = ipaddr.FromOctets([4]byte{ip[16], ip[17], ip[18], ip[19]})
	p.SrcPort, p.DstPort, p.Flags = 0, 0, 0

	tr := ip[ihl:]
	switch p.Proto {
	case ProtoTCP:
		if len(tr) < tcpHeaderLen {
			return ErrTruncated
		}
		p.SrcPort = binary.BigEndian.Uint16(tr[0:2])
		p.DstPort = binary.BigEndian.Uint16(tr[2:4])
		p.Flags = TCPFlags(tr[13])
	case ProtoUDP:
		if len(tr) < udpHeaderLen {
			return ErrTruncated
		}
		p.SrcPort = binary.BigEndian.Uint16(tr[0:2])
		p.DstPort = binary.BigEndian.Uint16(tr[2:4])
	case ProtoICMP:
		if len(tr) < icmpHeaderLen {
			return ErrTruncated
		}
	}
	return nil
}

// checksum computes the RFC 1071 Internet checksum of b.
func checksum(b []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(b); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(b[i : i+2]))
	}
	if len(b)%2 == 1 {
		sum += uint32(b[len(b)-1]) << 8
	}
	for sum > 0xffff {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}
