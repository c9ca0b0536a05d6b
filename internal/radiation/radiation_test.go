package radiation

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/ipaddr"
	"repro/internal/pcap"
	"repro/internal/stats"
)

func smallConfig() Config {
	c := DefaultConfig()
	c.NumSources = 3000
	c.ZM = stats.PaperZM(1 << 12)
	c.Months = 15
	return c
}

// TestConfigValidate moved to validate_test.go: a named negative-path
// sweep over every field, including the workload-zoo knobs.

func TestBetaStarDip(t *testing.T) {
	c := DefaultConfig()
	atDip := c.betaStar(math.Pow(2, c.DipLog2))
	if math.Abs(atDip-c.BetaDip) > 1e-9 {
		t.Errorf("beta at dip = %g, want %g", atDip, c.BetaDip)
	}
	far := c.betaStar(1)
	if far < 0.9*c.BetaBase {
		t.Errorf("beta far from dip = %g, want near %g", far, c.BetaBase)
	}
	if c.betaStar(1<<20) < c.betaStar(1<<10) {
		t.Error("beta should recover above the dip")
	}
}

func TestPeakVisibilityLaw(t *testing.T) {
	c := DefaultConfig() // BrightLog2 = 10
	if v := c.peakVisibility(1 << 10); v != 1 {
		t.Errorf("bright source visibility = %g, want 1", v)
	}
	if v := c.peakVisibility(1 << 20); v != 1 {
		t.Errorf("very bright source visibility = %g, want 1 (clamped)", v)
	}
	if v := c.peakVisibility(32); math.Abs(v-0.5) > 1e-9 {
		t.Errorf("d=2^5 visibility = %g, want 0.5", v)
	}
	if v := c.peakVisibility(1); v <= 0 {
		t.Errorf("d=1 visibility = %g, want > 0", v)
	}
}

func TestPopulationDeterministic(t *testing.T) {
	p1, err := NewPopulation(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := NewPopulation(smallConfig())
	for i := 0; i < p1.Len(); i++ {
		if p1.Source(i) != p2.Source(i) {
			t.Fatalf("source %d differs between identically-seeded populations", i)
		}
	}
	c3 := smallConfig()
	c3.Seed = 99
	p3, _ := NewPopulation(c3)
	diff := 0
	for i := 0; i < p1.Len(); i++ {
		if p1.Source(i).IP != p3.Source(i).IP {
			diff++
		}
	}
	if diff == 0 {
		t.Error("different seeds produced identical populations")
	}
}

func TestPopulationAddressHygiene(t *testing.T) {
	p, err := NewPopulation(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[ipaddr.Addr]bool)
	dark := p.Config().Darkspace
	for i := 0; i < p.Len(); i++ {
		ip := p.Source(i).IP
		if dark.Contains(ip) {
			t.Fatalf("source %d inside darkspace", i)
		}
		if ipaddr.IsPrivate(ip) {
			t.Fatalf("source %d has private address %v", i, ip)
		}
		if seen[ip] {
			t.Fatalf("duplicate source address %v", ip)
		}
		seen[ip] = true
	}
}

func TestBrightnessFollowsZM(t *testing.T) {
	c := smallConfig()
	c.NumSources = 50000
	p, _ := NewPopulation(c)
	vals := make([]float64, p.Len())
	for i := range vals {
		vals[i] = p.Source(i).Brightness
	}
	alpha, _, _ := stats.FitZipfMandelbrot(stats.LogBin(vals), c.ZM.DMax)
	if math.Abs(alpha-c.ZM.Alpha) > 0.35 {
		t.Errorf("population brightness fit alpha = %g, want ~%g", alpha, c.ZM.Alpha)
	}
}

// groundTruthVisibility is the exact honeyfarm visibility probability
// of source i in month m, the rate visibleIn's draws must show.
func (p *Population) groundTruthVisibility(i int, month int) float64 {
	b := &p.records()[i]
	if b.persistent {
		return b.peak
	}
	return b.peak * (p.cfg.Background + (1-p.cfg.Background)*p.beam(b, float64(month)+0.5))
}

// visibleMask is visibleIn(month) as one flag per source.
func (p *Population) visibleMask(month int) []bool {
	mask := make([]bool, p.Len())
	for _, i := range p.visibleIn(month) {
		mask[i] = true
	}
	return mask
}

func TestVisibilityDrawsMatchGroundTruth(t *testing.T) {
	// Monte Carlo over sources within a band: empirical honeyfarm
	// visibility rate must track groundTruthVisibility.
	c := smallConfig()
	c.NumSources = 20000
	p, _ := NewPopulation(c)
	month := 7
	var want float64
	n := 0
	for i := 0; i < p.Len(); i++ {
		want += p.groundTruthVisibility(i, month)
		n++
	}
	got := float64(len(p.visibleIn(month)))
	want /= float64(n)
	got /= float64(n)
	if math.Abs(want-got) > 0.02 {
		t.Errorf("empirical visibility %g vs expected %g", got, want)
	}
}

// TestVisibleInMatchesGroundTruthDraws checks the scan against the
// per-source probability at α* = 1, Z00005's 1.4 and 0.7, and
// backgrounds 0, 0.03 and 1: visibleIn picks exactly the sources, in
// order, whose draw falls under groundTruthVisibility.
func TestVisibleInMatchesGroundTruthDraws(t *testing.T) {
	for _, alpha := range []float64{1, 1.4, 0.7} {
		for _, bg := range []float64{0, 0.03, 1} {
			c := smallConfig()
			c.AlphaStar, c.Background = alpha, bg
			pop, err := NewPopulation(c)
			if err != nil {
				t.Fatal(err)
			}
			for m := range c.Months {
				var want []int32
				for i := range pop.Len() {
					if hashUnit(c.Seed, uint64(i), uint64(m), chanHoneyfarm) < pop.groundTruthVisibility(i, m) {
						want = append(want, int32(i))
					}
				}
				if got := pop.visibleIn(m); !slices.Equal(got, want) {
					t.Fatalf("α* %g bg %g month %d: visibleIn picks %d sources, the ground truth %d", alpha, bg, m, len(got), len(want))
				}
			}
		}
	}
}

// TestEpisodeSquareIsPow checks telescopeEpisode's square against
// math.Pow(dt, 2) bit for bit over the range its comment derives for
// dt: 0, both ends of the normal-square range 2^-511 <= dt < 2^512, the
// smallest nonzero dt an anchor and a window month give (2^-104 and
// 2^-52), and 10^6 random dt, half |month - anchor| with the anchor
// drawn as NewPopulation draws it and the month inside the study, half
// log-uniform over [2^-104, 2^12). Each random dt also goes through the
// kernel, which must equal the Pow formula.
func TestEpisodeSquareIsPow(t *testing.T) {
	same := func(dt float64) {
		t.Helper()
		if sq, pw := dt*dt, math.Pow(dt, 2); math.Float64bits(sq) != math.Float64bits(pw) {
			t.Fatalf("dt %g (%#x): dt*dt %#x, Pow %#x", dt, math.Float64bits(dt), math.Float64bits(sq), math.Float64bits(pw))
		}
	}
	for _, dt := range []float64{0, 0x1p-511, math.Nextafter(0x1p-511, 1), 0x1p-104, 0x1p-52, 1, math.Nextafter(0x1p512, 0)} {
		same(dt)
	}
	p, err := NewPopulation(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	tb := p.cfg.TelescopeBeta
	rng := rand.New(rand.NewSource(11))
	for k := range 1000000 {
		var s Source
		var month float64
		if k%2 == 0 {
			months := float64(1 + rng.Intn(120))
			s.Anchor = -6 + rng.Float64()*(months+12)
			month = rng.Float64() * months
		} else {
			month = math.Exp2(116*rng.Float64() - 104)
		}
		dt := math.Abs(month - s.Anchor)
		same(dt)
		if got, want := p.telescopeEpisode(&s, month), tb/(tb+math.Pow(dt, 2)); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("dt %g: kernel %g, Pow formula %g", dt, got, want)
		}
	}
}

func TestTelescopeHoneyfarmDrawsIndependent(t *testing.T) {
	// The same (source, month) must use different randomness for the two
	// channels: correlation of the indicators should be near the product
	// of the rates, not equal to the smaller rate.
	c := smallConfig()
	c.NumSources = 20000
	c.Persistent = 0
	p, _ := NewPopulation(c)
	month := 5
	var tele, honey, both, n float64
	visible := p.visibleMask(month)
	for i := 0; i < p.Len(); i++ {
		tv := p.telescopeActive(i, float64(month))
		hv := visible[i]
		if tv {
			tele++
		}
		if hv {
			honey++
		}
		if tv && hv {
			both++
		}
		n++
	}
	// Conditional dependence through the shared beam is expected; exact
	// reuse of the same random draw would force both == min(tele, honey)
	// among beam-active sources. Check we are far from that degenerate case.
	if both > 0.95*math.Min(tele, honey) {
		t.Errorf("draws appear perfectly coupled: tele=%g honey=%g both=%g", tele, honey, both)
	}
	if n == 0 || tele == 0 || honey == 0 {
		t.Fatal("degenerate visibility rates")
	}
}

func TestTelescopeStreamTimeOrderedAndComplete(t *testing.T) {
	c := smallConfig()
	c.NumSources = 2000
	p, _ := NewPopulation(c)
	start := time.Date(2020, 6, 17, 12, 0, 0, 0, time.UTC)
	st := p.TelescopeStream(4, start)
	if st.ActiveSources() == 0 {
		t.Fatal("no active sources in window")
	}
	var pkt pcap.Packet
	last := time.Time{}
	n := 0
	perSource := make(map[ipaddr.Addr]int)
	for st.Next(&pkt) {
		if pkt.Time.Before(last) {
			t.Fatalf("packet %d out of order: %v < %v", n, pkt.Time, last)
		}
		last = pkt.Time
		perSource[pkt.Src]++
		n++
	}
	if n != st.ExpectedPackets() || n != st.Emitted() {
		t.Fatalf("emitted %d packets, expected %d", n, st.ExpectedPackets())
	}
	if len(perSource) == 0 {
		t.Fatal("no sources emitted")
	}
}

func TestTelescopeStreamDestinationsInDarkspace(t *testing.T) {
	c := smallConfig()
	c.NumSources = 1000
	p, _ := NewPopulation(c)
	st := p.TelescopeStream(2, time.Unix(0, 0))
	var pkt pcap.Packet
	for st.Next(&pkt) {
		if !c.Darkspace.Contains(pkt.Dst) {
			t.Fatalf("destination %v outside darkspace", pkt.Dst)
		}
		if pkt.Length <= 0 || pkt.Length > 65535 {
			t.Fatalf("bad packet length %d", pkt.Length)
		}
	}
}

func TestTelescopeStreamContainsBogons(t *testing.T) {
	c := smallConfig()
	c.NumSources = 2000
	c.BogonRate = 0.05
	p, _ := NewPopulation(c)
	st := p.TelescopeStream(3, time.Unix(0, 0))
	var pkt pcap.Packet
	bogons, n := 0, 0
	for st.Next(&pkt) {
		if ipaddr.IsPrivate(pkt.Src) {
			bogons++
		}
		n++
	}
	rate := float64(bogons) / float64(n)
	if rate < 0.02 || rate > 0.10 {
		t.Errorf("bogon rate = %g, want near 0.05", rate)
	}
}

func TestStreamDeterministic(t *testing.T) {
	c := smallConfig()
	c.NumSources = 500
	p, _ := NewPopulation(c)
	drain := func() []pcap.Packet {
		st := p.TelescopeStream(1, time.Unix(0, 0))
		var out []pcap.Packet
		var pkt pcap.Packet
		for st.Next(&pkt) {
			out = append(out, pkt)
		}
		return out
	}
	a, b := drain(), drain()
	if len(a) != len(b) {
		t.Fatalf("stream lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("packet %d differs between identical streams", i)
		}
	}
}

func TestWormSweepsSequentially(t *testing.T) {
	c := smallConfig()
	c.NumSources = 3000
	p, _ := NewPopulation(c)
	// find a worm source with decent brightness
	var worm *Source
	for i := 0; i < p.Len(); i++ {
		s := p.Source(i)
		if s.Type == Worm && s.Brightness >= 16 {
			worm = &s
			break
		}
	}
	if worm == nil {
		t.Skip("no bright worm in small population")
	}
	st := p.TelescopeStream(worm.Anchor, time.Unix(0, 0))
	var pkt pcap.Packet
	var dsts []ipaddr.Addr
	for st.Next(&pkt) {
		if pkt.Src == worm.IP {
			dsts = append(dsts, pkt.Dst)
		}
	}
	if len(dsts) < 2 {
		t.Skip("worm inactive in its own anchor window (possible for faint beams)")
	}
	for i := 1; i < len(dsts); i++ {
		if uint32(dsts[i]) != uint32(dsts[i-1])+1 {
			t.Fatalf("worm sweep not sequential at %d: %v -> %v", i, dsts[i-1], dsts[i])
		}
	}
}

func TestHoneyfarmMonthMetadata(t *testing.T) {
	c := smallConfig()
	p, _ := NewPopulation(c)
	start := time.Date(2020, 2, 1, 0, 0, 0, 0, time.UTC)
	obs := p.HoneyfarmMonth(0, start)
	if len(obs) == 0 {
		t.Fatal("honeyfarm saw nothing")
	}
	end := start.AddDate(0, 1, 0)
	for _, o := range obs {
		if o.Packets < 1 {
			t.Fatalf("observation with %d packets", o.Packets)
		}
		if o.FirstSeen.Before(start) || o.FirstSeen.After(end) {
			t.Fatalf("FirstSeen %v outside month", o.FirstSeen)
		}
		if o.LastSeen.Before(o.FirstSeen) {
			t.Fatal("LastSeen before FirstSeen")
		}
	}
}

func TestHoneyfarmBrightSourcesAlmostAlwaysVisible(t *testing.T) {
	// Figure 4 ground truth: sources with d > 2^BrightLog2 visible in
	// their anchor month with probability near 1 (beam at peak).
	c := smallConfig()
	c.NumSources = 30000
	c.ZM = stats.PaperZM(1 << 14)
	p, _ := NewPopulation(c)
	var bright, visible int
	masks := make([][]bool, c.Months)
	for i := 0; i < p.Len(); i++ {
		s := p.Source(i)
		if s.Brightness < math.Pow(2, c.BrightLog2) {
			continue
		}
		m := int(math.Round(s.Anchor))
		if m < 0 || m >= c.Months {
			continue
		}
		bright++
		if masks[m] == nil {
			masks[m] = p.visibleMask(m)
		}
		if masks[m][i] {
			visible++
		}
	}
	if bright < 20 {
		t.Skip("too few bright sources at this scale")
	}
	frac := float64(visible) / float64(bright)
	if frac < 0.7 {
		t.Errorf("bright anchor-month visibility = %g, want > 0.7 (paper: ~consistently detected)", frac)
	}
}

func TestArchetypeStrings(t *testing.T) {
	want := map[Archetype]string{
		Scanner: "scanner", Worm: "worm", Backscatter: "backscatter",
		BotnetKeepalive: "botnet", Misconfiguration: "misconfiguration",
		Archetype(99): "unknown",
	}
	for a, s := range want {
		if a.String() != s {
			t.Errorf("%d.String() = %q, want %q", a, a.String(), s)
		}
	}
}

func BenchmarkTelescopeStream(b *testing.B) {
	c := smallConfig()
	c.NumSources = 20000
	p, _ := NewPopulation(c)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := p.TelescopeStream(4, time.Unix(0, 0))
		var pkt pcap.Packet
		for st.Next(&pkt) {
		}
	}
}

// TestNextBatchMatchesNext proves the slab emission API is
// byte-identical to per-packet emission: two streams from the same
// seed, one drained by Next and one by mixed-size NextBatch calls,
// produce the same packet sequence and the same stream accounting.
func TestNextBatchMatchesNext(t *testing.T) {
	pop, err := NewPopulation(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	start := time.Date(2020, 6, 17, 12, 0, 0, 0, time.UTC)
	one := pop.TelescopeStream(4.5, start)
	batched := pop.TelescopeStream(4.5, start)

	sizes := []int{1, 7, 64, 3, 512, 1}
	slab := make([]pcap.Packet, 512)
	var single pcap.Packet
	total, si := 0, 0
	for {
		n := batched.NextBatch(slab[:sizes[si%len(sizes)]])
		si++
		for i := 0; i < n; i++ {
			if !one.Next(&single) {
				t.Fatalf("per-packet stream exhausted at %d, batch stream still emitting", total)
			}
			if single != slab[i] {
				t.Fatalf("packet %d differs:\nnext  %+v\nbatch %+v", total, single, slab[i])
			}
			total++
		}
		if n == 0 {
			break
		}
	}
	if one.Next(&single) {
		t.Fatal("batch stream exhausted early")
	}
	if total != one.ExpectedPackets() || batched.Emitted() != one.Emitted() {
		t.Fatalf("emitted %d (batch) vs %d (next), expected %d", batched.Emitted(), one.Emitted(), total)
	}
	if total == 0 {
		t.Fatal("stream produced no packets")
	}
}

// TestNextBatchZeroLength asserts an empty slab is a no-op.
func TestNextBatchZeroLength(t *testing.T) {
	pop, err := NewPopulation(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	st := pop.TelescopeStream(4.5, time.Unix(0, 0))
	if n := st.NextBatch(nil); n != 0 {
		t.Fatalf("NextBatch(nil) = %d", n)
	}
	if st.Emitted() != 0 {
		t.Fatal("empty batch advanced the stream")
	}
}

// BenchmarkStreamNext measures per-packet emission.
func BenchmarkStreamNext(b *testing.B) {
	pop, err := NewPopulation(smallConfig())
	if err != nil {
		b.Fatal(err)
	}
	st := pop.TelescopeStream(4.5, time.Unix(0, 0))
	var pkt pcap.Packet
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !st.Next(&pkt) {
			b.StopTimer()
			st = pop.TelescopeStream(4.5, time.Unix(0, 0))
			b.StartTimer()
		}
	}
}

// BenchmarkStreamNextBatch measures slab emission at the engine's
// default slab size.
func BenchmarkStreamNextBatch(b *testing.B) {
	pop, err := NewPopulation(smallConfig())
	if err != nil {
		b.Fatal(err)
	}
	st := pop.TelescopeStream(4.5, time.Unix(0, 0))
	slab := make([]pcap.Packet, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	n := 0
	for n < b.N {
		got := st.NextBatch(slab)
		if got == 0 {
			b.StopTimer()
			st = pop.TelescopeStream(4.5, time.Unix(0, 0))
			b.StartTimer()
			continue
		}
		n += got
	}
}

// TestScanPortWeightsSumToTotal keeps the constant pickScanPort draws
// against equal to the table it walks.
func TestScanPortWeightsSumToTotal(t *testing.T) {
	sum := 0
	for _, p := range commonScanPorts {
		sum += p.weight
	}
	if sum != scanPortTotal {
		t.Fatalf("commonScanPorts weights sum to %d, scanPortTotal is %d", sum, scanPortTotal)
	}
}
