package ipaddr

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestParseRoundTrip(t *testing.T) {
	cases := []string{"0.0.0.0", "1.2.3.4", "255.255.255.255", "10.0.0.1", "192.168.1.254"}
	for _, s := range cases {
		a, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if got := a.String(); got != s {
			t.Errorf("round trip %q -> %q", s, got)
		}
		if got := string(a.AppendTo([]byte("src="))); got != "src="+s {
			t.Errorf("AppendTo after a prefix = %q, want %q", got, "src="+s)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{"", "1.2.3", "1.2.3.4.5", "256.0.0.1", "-1.0.0.0", "a.b.c.d", "1..2.3", "01.2.3.4", "1.2.3.4 "}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", s)
		}
	}
}

func TestParseKnownValues(t *testing.T) {
	a := MustParse("1.1.1.1")
	if uint32(a) != 16843009 {
		t.Errorf("1.1.1.1 = %d, want 16843009 (paper's example)", uint32(a))
	}
	b := MustParse("2.2.2.2")
	if uint32(b) != 33686018 {
		t.Errorf("2.2.2.2 = %d, want 33686018 (paper's example)", uint32(b))
	}
}

func TestOctetsRoundTrip(t *testing.T) {
	f := func(v uint32) bool {
		a := Addr(v)
		return FromOctets(a.Octets()) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStringParseRoundTripProperty(t *testing.T) {
	f := func(v uint32) bool {
		a := Addr(v)
		b, err := Parse(a.String())
		return err == nil && b == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPrefixContains(t *testing.T) {
	p := MustParsePrefix("44.0.0.0/8")
	if !p.Contains(MustParse("44.255.3.9")) {
		t.Error("44.255.3.9 should be inside 44.0.0.0/8")
	}
	if p.Contains(MustParse("45.0.0.0")) {
		t.Error("45.0.0.0 should be outside 44.0.0.0/8")
	}
	if got := p.Size(); got != 1<<24 {
		t.Errorf("Size() = %d, want 2^24", got)
	}
}

func TestPrefixMaskEdges(t *testing.T) {
	all := MustParsePrefix("0.0.0.0/0")
	if all.Mask() != 0 {
		t.Errorf("/0 mask = %v, want 0", all.Mask())
	}
	if !all.Contains(MustParse("200.1.2.3")) {
		t.Error("/0 must contain everything")
	}
	host := MustParsePrefix("9.9.9.9/32")
	if !host.Contains(MustParse("9.9.9.9")) || host.Contains(MustParse("9.9.9.8")) {
		t.Error("/32 must contain exactly itself")
	}
	if host.Size() != 1 {
		t.Errorf("/32 size = %d, want 1", host.Size())
	}
}

func TestPrefixBaseMasked(t *testing.T) {
	p := MustParsePrefix("10.9.8.7/8")
	if p.Base != MustParse("10.0.0.0") {
		t.Errorf("base not masked: %v", p.Base)
	}
	if p.String() != "10.0.0.0/8" {
		t.Errorf("String() = %q", p.String())
	}
}

func TestPrefixParseErrors(t *testing.T) {
	bad := []string{"10.0.0.0", "10.0.0.0/33", "10.0.0.0/-1", "10.0.0.0/x", "10.0.0/8"}
	for _, s := range bad {
		if _, err := ParsePrefix(s); err == nil {
			t.Errorf("ParsePrefix(%q) succeeded, want error", s)
		}
	}
}

func TestNthOffsetRoundTrip(t *testing.T) {
	p := MustParsePrefix("44.0.0.0/8")
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		idx := uint64(rng.Intn(1 << 24))
		a := p.Nth(idx)
		if !p.Contains(a) {
			t.Fatalf("Nth(%d) = %v outside prefix", idx, a)
		}
		if got := uint64(a &^ p.Mask()); got != idx {
			t.Fatalf("Nth(%d) is %d past the base", idx, got)
		}
	}
}

func TestNthPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Nth out of range did not panic")
		}
	}()
	MustParsePrefix("1.0.0.0/24").Nth(256)
}

func TestIsPrivate(t *testing.T) {
	private := []string{"10.1.2.3", "172.16.0.1", "172.31.255.255", "192.168.0.1"}
	public := []string{"11.0.0.1", "172.32.0.1", "192.169.0.1", "8.8.8.8"}
	for _, s := range private {
		if !IsPrivate(MustParse(s)) {
			t.Errorf("IsPrivate(%s) = false, want true", s)
		}
	}
	for _, s := range public {
		if IsPrivate(MustParse(s)) {
			t.Errorf("IsPrivate(%s) = true, want false", s)
		}
	}
}
