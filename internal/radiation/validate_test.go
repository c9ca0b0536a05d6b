package radiation

import (
	"strings"
	"testing"
	"time"

	"repro/internal/ipaddr"
	"repro/internal/pcap"
)

// TestConfigValidate sweeps the negative paths of radiation.Config: every
// invalid configuration must be rejected at Validate/NewPopulation with a named
// error instead of surfacing later as a deep pipeline failure.
func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("DefaultConfig invalid: %v", err)
	}
	bad := []struct {
		name string
		mut  func(*Config)
		want string // substring the error must carry
	}{
		{"zero population", func(c *Config) { c.NumSources = 0 }, "NumSources"},
		{"negative population", func(c *Config) { c.NumSources = -5 }, "NumSources"},
		{"zero months", func(c *Config) { c.Months = 0 }, "Months"},
		{"empty ZM", func(c *Config) { c.ZM = DefaultConfig().ZM; c.ZM.Alpha = 0; c.ZM.DMax = 0 }, "ZM"},
		{"ZM alpha at unity", func(c *Config) { c.ZM.Alpha = 1 }, "ZM.Alpha"},
		{"ZM degenerate dmax", func(c *Config) { c.ZM.DMax = 1 }, "ZM.DMax"},
		{"zero beam alpha", func(c *Config) { c.AlphaStar = 0 }, "beam"},
		{"negative beta base", func(c *Config) { c.BetaBase = -1 }, "beam"},
		{"zero beta dip", func(c *Config) { c.BetaDip = 0 }, "beam"},
		{"zero episode kernel", func(c *Config) { c.TelescopeAlpha = 0 }, "episode"},
		{"negative episode scale", func(c *Config) { c.TelescopeBeta = -0.2 }, "episode"},
		{"background above one", func(c *Config) { c.Background = 1.5 }, "Background"},
		{"persistent below zero", func(c *Config) { c.Persistent = -0.1 }, "Persistent"},
		{"zero brightness aperture", func(c *Config) { c.BrightLog2 = 0 }, "BrightLog2"},
		{"bogon rate above half", func(c *Config) { c.BogonRate = 0.6 }, "BogonRate"},
		{"darkspace too wide", func(c *Config) { c.Darkspace = ipaddr.Prefix{Base: 0, Bits: 0} }, "Darkspace"},
		{"darkspace too narrow", func(c *Config) { c.Darkspace = ipaddr.MustParsePrefix("44.0.0.0/28") }, "Darkspace"},
		{"short mix", func(c *Config) { c.Mix = []float64{1, 2} }, "Mix"},
		{"negative mix weight", func(c *Config) { c.Mix = []float64{1, 1, -1, 1, 1} }, "Mix"},
		{"zero-sum mix", func(c *Config) { c.Mix = []float64{0, 0, 0, 0, 0} }, "Mix"},
		{"vertical scan above one", func(c *Config) { c.VerticalScan = 1.1 }, "VerticalScan"},
		{"negative v6 fraction", func(c *Config) { c.V6Sources = -0.2 }, "V6Sources"},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			c := DefaultConfig()
			tc.mut(&c)
			err := c.Validate()
			if err == nil {
				t.Fatalf("invalid config accepted: %+v", c)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not name %q", err, tc.want)
			}
			if _, err := NewPopulation(c); err == nil {
				t.Error("NewPopulation accepted invalid config")
			}
		})
	}
}

// An explicit Mix equal to the built-in census weights must reproduce
// the default population byte for byte (same rng consumption), so
// scenario files can spell the mix out without changing the workload.
func TestExplicitCensusMixMatchesDefault(t *testing.T) {
	base := DefaultConfig()
	base.NumSources = 2000
	withMix := base
	withMix.Mix = append([]float64(nil), archetypeWeights[:]...)
	a, err := NewPopulation(base)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewPopulation(withMix)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < a.Len(); i++ {
		if a.Source(i) != b.Source(i) {
			t.Fatalf("source %d differs: %+v vs %+v", i, a.Source(i), b.Source(i))
		}
	}
}

func TestMixShiftsArchetypes(t *testing.T) {
	c := DefaultConfig()
	c.NumSources = 4000
	c.Mix = []float64{0.02, 0.02, 0.9, 0.03, 0.03} // backscatter-dominant
	p, err := NewPopulation(c)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for i := 0; i < p.Len(); i++ {
		if p.Source(i).Type == Backscatter {
			count++
		}
	}
	if frac := float64(count) / float64(p.Len()); frac < 0.85 || frac > 0.95 {
		t.Errorf("backscatter share = %.3f, want ~0.90", frac)
	}
}

func TestV6SourcesEmbed(t *testing.T) {
	c := DefaultConfig()
	c.NumSources = 4000
	c.V6Sources = 0.5
	p, err := NewPopulation(c)
	if err != nil {
		t.Fatal(err)
	}
	n, seen := 0, make(map[ipaddr.Addr]bool)
	for i := 0; i < p.Len(); i++ {
		s := p.Source(i)
		if seen[s.IP] {
			t.Fatalf("duplicate matrix index %v", s.IP)
		}
		seen[s.IP] = true
		if !s.V6 {
			if ipaddr.V6EmbedPrefix.Contains(s.IP) {
				t.Fatalf("native source %d landed in the embedding space", i)
			}
			continue
		}
		n++
		if !ipaddr.V6EmbedPrefix.Contains(s.IP) {
			t.Fatalf("v6 source %d outside the embedding space: %v", i, s.IP)
		}
		if s.IP != ipaddr.EmbedV6(s.IP6) {
			t.Fatalf("v6 source %d index does not embed its IP6", i)
		}
		if s.IP6.String()[:len("2001:db8:")] != "2001:db8:" {
			t.Fatalf("v6 source %d outside the synthetic prefix: %v", i, s.IP6)
		}
	}
	if frac := float64(n) / float64(p.Len()); frac < 0.44 || frac > 0.56 {
		t.Errorf("v6 share = %.3f, want ~0.50", frac)
	}
}

// Vertical scanners must keep a single darkspace destination per source
// while sweeping ports; horizontal scanners keep spraying destinations.
func TestVerticalScanShape(t *testing.T) {
	c := DefaultConfig()
	c.NumSources = 1500
	c.VerticalScan = 1.0
	c.Mix = []float64{1, 0, 0, 0, 0} // scanners only
	c.BogonRate = 0
	p, err := NewPopulation(c)
	if err != nil {
		t.Fatal(err)
	}
	st := p.TelescopeStream(4.5, time.Unix(0, 0))
	dsts := make(map[ipaddr.Addr]map[ipaddr.Addr]bool)
	ports := make(map[ipaddr.Addr]map[uint16]bool)
	var pkt pcap.Packet
	for st.Next(&pkt) {
		if dsts[pkt.Src] == nil {
			dsts[pkt.Src] = make(map[ipaddr.Addr]bool)
			ports[pkt.Src] = make(map[uint16]bool)
		}
		dsts[pkt.Src][pkt.Dst] = true
		ports[pkt.Src][pkt.DstPort] = true
	}
	multiPort := 0
	for src, d := range dsts {
		if len(d) != 1 {
			t.Fatalf("vertical scanner %v hit %d destinations", src, len(d))
		}
		if len(ports[src]) > 1 {
			multiPort++
		}
	}
	if multiPort == 0 {
		t.Error("no vertical scanner swept more than one port")
	}
}
