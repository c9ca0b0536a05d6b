package ipaddr

import "testing"

// addr6 builds an address from its eight 16-bit groups.
func addr6(groups ...uint16) (a Addr6) {
	for i, g := range groups {
		a[2*i], a[2*i+1] = byte(g>>8), byte(g)
	}
	return a
}

func TestAddr6String(t *testing.T) {
	cases := []struct {
		in   Addr6
		want string
	}{
		{addr6(0x2001, 0xdb8, 0, 0, 0, 0, 0, 1), "2001:db8::1"},
		{addr6(), "::"},
		{addr6(0, 0, 0, 0, 0, 0, 0, 1), "::1"},
		{addr6(0xfe80), "fe80::"},
		{addr6(0x2001, 0xdb8, 1, 2, 3, 4, 5, 6), "2001:db8:1:2:3:4:5:6"},
		{addr6(0, 0, 1, 0, 0, 0, 0, 1), "0:0:1::1"}, // longest run wins
		{addr6(1, 0, 0, 2, 0, 0, 0, 3), "1:0:0:2::3"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("%v.String() = %q, want %q", [16]byte(c.in), got, c.want)
		}
	}
}

func TestEmbedV6(t *testing.T) {
	a := addr6(0x2001, 0xdb8, 0, 0, 0, 0, 0, 1)
	b := addr6(0x2001, 0xdb8, 0, 0, 0, 0, 0, 2)
	ea, eb := EmbedV6(a), EmbedV6(b)
	if ea != EmbedV6(a) {
		t.Error("EmbedV6 not deterministic")
	}
	if ea == eb {
		t.Errorf("adjacent addresses collide: %v", ea)
	}
	for _, e := range []Addr{ea, eb} {
		if !V6EmbedPrefix.Contains(e) {
			t.Errorf("%v outside the embedding prefix", e)
		}
		if IsPrivate(e) {
			t.Errorf("%v is RFC 1918", e)
		}
	}
}

// The embedding space must be disjoint from everything the synthetic
// population can draw natively, or embedded and native sources could
// alias in the traffic matrices.
func TestV6EmbedPrefixDisjoint(t *testing.T) {
	if V6EmbedPrefix.Contains(MustParse("44.0.0.1")) {
		t.Error("embedding prefix overlaps the default darkspace")
	}
	for _, p := range []Prefix{rfc1918a, rfc1918b, rfc1918c} {
		if V6EmbedPrefix.Contains(p.Base) {
			t.Errorf("embedding prefix overlaps %v", p)
		}
	}
}
