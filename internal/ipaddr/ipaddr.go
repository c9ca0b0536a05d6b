// Package ipaddr provides IPv4 addresses represented as uint32 values,
// CIDR prefixes, and subnet arithmetic.
//
// The observatory pipeline stores traffic matrices indexed by uint32
// source and destination addresses (the paper's 2^32 x 2^32 hypersparse
// matrices), so the entire code base works with this compact form and
// converts to dotted-quad strings only at the D4M boundary.
package ipaddr

import (
	"fmt"
	"strconv"
	"strings"
)

// Addr is an IPv4 address in host byte order: 1.2.3.4 == 0x01020304.
type Addr uint32

// Parse converts a dotted-quad string to an Addr. It accepts exactly
// the form String writes: four decimal octets of at most 255, with no
// sign and no leading zero. So Parse(s) succeeds only when
// Parse(s).String() == s, and two distinct strings never parse to one
// address. It is one pass over the bytes and allocates only an error.
func Parse(s string) (Addr, error) {
	var a uint32
	start := 0 // of the current octet
	for i := 0; i < 4; i++ {
		// v > 255 marks a token that is no octet: a non-digit, or a
		// value past 255 (which stops accumulating there).
		v, end := uint32(0), start
		for ; end < len(s) && s[end] != '.'; end++ {
			if d := uint32(s[end] - '0'); d <= 9 && v <= 255 {
				v = v*10 + d
			} else {
				v = 256
			}
		}
		switch {
		case i < 3 && end == len(s):
			return 0, fmt.Errorf("ipaddr: invalid address %q", s)
		case i == 3 && end < len(s): // the last octet runs to the end
			return 0, fmt.Errorf("ipaddr: invalid octet %q in %q", s[start:], s)
		case v > 255 || end == start || end-start > 1 && s[start] == '0':
			return 0, fmt.Errorf("ipaddr: invalid octet %q in %q", s[start:end], s)
		}
		a = a<<8 | v
		start = end + 1
	}
	return Addr(a), nil
}

// MustParse is Parse that panics on error, for constants in tests and examples.
func MustParse(s string) Addr {
	a, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return a
}

// String returns the dotted-quad representation.
func (a Addr) String() string {
	var b [15]byte
	return string(a.AppendTo(b[:0]))
}

// AppendTo appends the dotted-quad representation to b, at most 15
// bytes, and returns the extended slice: String without the string, for
// a caller rendering many addresses into one buffer.
func (a Addr) AppendTo(b []byte) []byte {
	b = strconv.AppendUint(b, uint64(a>>24), 10)
	b = append(b, '.')
	b = strconv.AppendUint(b, uint64(a>>16&0xff), 10)
	b = append(b, '.')
	b = strconv.AppendUint(b, uint64(a>>8&0xff), 10)
	b = append(b, '.')
	return strconv.AppendUint(b, uint64(a&0xff), 10)
}

// Octets returns the four address bytes, most significant first.
func (a Addr) Octets() [4]byte {
	return [4]byte{byte(a >> 24), byte(a >> 16), byte(a >> 8), byte(a)}
}

// FromOctets assembles an Addr from four bytes, most significant first.
func FromOctets(o [4]byte) Addr {
	return Addr(uint32(o[0])<<24 | uint32(o[1])<<16 | uint32(o[2])<<8 | uint32(o[3]))
}

// Prefix is an IPv4 CIDR prefix such as 10.0.0.0/8.
type Prefix struct {
	Base Addr
	Bits int // prefix length, 0..32
}

// ParsePrefix parses "a.b.c.d/len". The base address is masked to the
// prefix length.
func ParsePrefix(s string) (Prefix, error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return Prefix{}, fmt.Errorf("ipaddr: missing '/' in prefix %q", s)
	}
	a, err := Parse(s[:slash])
	if err != nil {
		return Prefix{}, err
	}
	bits, err := strconv.Atoi(s[slash+1:])
	if err != nil || bits < 0 || bits > 32 {
		return Prefix{}, fmt.Errorf("ipaddr: invalid prefix length in %q", s)
	}
	p := Prefix{Base: a, Bits: bits}
	p.Base &= p.Mask()
	return p, nil
}

// MustParsePrefix is ParsePrefix that panics on error.
func MustParsePrefix(s string) Prefix {
	p, err := ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}

// Mask returns the netmask of the prefix as an Addr.
func (p Prefix) Mask() Addr {
	if p.Bits == 0 {
		return 0
	}
	return Addr(^uint32(0) << (32 - p.Bits))
}

// Contains reports whether a falls inside the prefix.
func (p Prefix) Contains(a Addr) bool {
	return a&p.Mask() == p.Base&p.Mask()
}

// Size returns the number of addresses covered by the prefix.
func (p Prefix) Size() uint64 {
	return uint64(1) << (32 - p.Bits)
}

// Nth returns the i-th address of the prefix (0 == network address).
// It panics if i is out of range.
func (p Prefix) Nth(i uint64) Addr {
	if i >= p.Size() {
		panic(fmt.Sprintf("ipaddr: index %d out of range for %s", i, p))
	}
	return p.Base&p.Mask() | Addr(i)
}

// String returns the CIDR notation of the prefix.
func (p Prefix) String() string {
	return p.Base.String() + "/" + strconv.Itoa(p.Bits)
}

// IsPrivate reports whether a belongs to the RFC 1918 ranges, used by the
// telescope's legitimate-traffic filter.
func IsPrivate(a Addr) bool {
	return rfc1918a.Contains(a) || rfc1918b.Contains(a) || rfc1918c.Contains(a)
}

var (
	rfc1918a = Prefix{Base: 0x0A000000, Bits: 8}  // 10.0.0.0/8
	rfc1918b = Prefix{Base: 0xAC100000, Bits: 12} // 172.16.0.0/12
	rfc1918c = Prefix{Base: 0xC0A80000, Bits: 16} // 192.168.0.0/16
)
