package ipaddr

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

// parseRef is the strconv parser Parse replaced, kept as its oracle:
// split at the first three dots, then ParseUint each token and refuse
// one past 255, empty, or with a leading zero.
func parseRef(s string) (Addr, error) {
	var parts [4]uint32
	rest := s
	for i := 0; i < 4; i++ {
		var tok string
		if i < 3 {
			dot := strings.IndexByte(rest, '.')
			if dot < 0 {
				return 0, fmt.Errorf("ipaddr: invalid address %q", s)
			}
			tok, rest = rest[:dot], rest[dot+1:]
		} else {
			tok = rest
		}
		v, err := strconv.ParseUint(tok, 10, 32)
		if err != nil || v > 255 || tok == "" || (len(tok) > 1 && tok[0] == '0') {
			return 0, fmt.Errorf("ipaddr: invalid octet %q in %q", tok, s)
		}
		parts[i] = uint32(v)
	}
	return Addr(parts[0]<<24 | parts[1]<<16 | parts[2]<<8 | parts[3]), nil
}

// parseSeeds are strings at the edges of the grammar: every error
// message, octets at and past 255, overflow past 32 bits, signs,
// leading zeros, spaces, and dots in every wrong place.
var parseSeeds = []string{
	"", "0.0.0.0", "1.2.3.4", "255.255.255.255", "10.0.0.1", "9.0.0.1", "1.2.3.40",
	"1.2.3", "1.2.3.4.5", "1.2.3.4.", ".1.2.3", "1..2.3", "...", "....",
	"256.0.0.1", "1.2.3.256", "1.2.3.2550", "4294967296.0.0.0", "99999999999999999999.1.1.1",
	"-1.0.0.0", "+1.0.0.0", "a.b.c.d", "1.2.3.x", "1.2.3.4 ", " 1.2.3.4", "1_0.0.0.0",
	"01.2.3.4", "1.2.3.04", "00.0.0.0", "0.0.0.00", "1.2.3.0x1", "1.2.3.4\x00",
	"hf/2020-02/host-a", "7.999.0.1", "1.2.3.\xff", "1.2.3.٣",
}

// TestParseMatchesOracle: on every seed, Parse returns what the strconv
// parser returns, error text included.
func TestParseMatchesOracle(t *testing.T) {
	for _, s := range parseSeeds {
		checkParse(t, s)
	}
}

// FuzzParse holds Parse to its oracle on any string, and to String:
// whatever Parse accepts, String writes back byte for byte, so two
// distinct strings never parse to one address (which would merge two
// sources in a correlation).
func FuzzParse(f *testing.F) {
	for _, s := range parseSeeds {
		f.Add(s)
	}
	f.Fuzz(checkParse)
}

func checkParse(t *testing.T, s string) {
	got, gotErr := Parse(s)
	want, wantErr := parseRef(s)
	if (gotErr == nil) != (wantErr == nil) || got != want ||
		gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("Parse(%q) = %v, %v; oracle %v, %v", s, got, gotErr, want, wantErr)
	}
	if gotErr == nil && got.String() != s {
		t.Fatalf("Parse(%q) = %v, which writes back as %q", s, got, got.String())
	}
}

// TestParseAllocFree: a successful Parse allocates nothing.
func TestParseAllocFree(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() {
		if _, err := Parse("192.168.100.254"); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Parse allocates %.1f/op on success, want 0", n)
	}
}

// BenchmarkParse parses a spread of addresses as a freeze meets them.
func BenchmarkParse(b *testing.B) {
	keys := make([]string, 1024)
	rng := rand.New(rand.NewSource(1))
	for i := range keys {
		keys[i] = Addr(rng.Uint32()).String()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(keys[i%len(keys)]); err != nil {
			b.Fatal(err)
		}
	}
}

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
