package radiation

import (
	"math"
	"math/rand"
	"sync"

	"repro/internal/ipaddr"
)

// Archetype classifies a radiation source by the mechanism generating its
// packets, following the paper's taxonomy of darkspace traffic
// ("backscatter from randomly spoofed sources used in denial-of-service
// attacks, the automated spread of Internet worms and viruses, scanning
// of address space ..., various misconfigurations ... longer-duration,
// low-intensity events intended to establish and maintain botnets").
type Archetype int

// Archetypes, in decreasing order of typical population share.
const (
	Scanner Archetype = iota
	Worm
	Backscatter
	BotnetKeepalive
	Misconfiguration
	NumArchetypes // how many archetypes there are
)

// String returns the archetype name as the honeyfarm classifies it.
func (a Archetype) String() string {
	switch a {
	case Scanner:
		return "scanner"
	case Worm:
		return "worm"
	case Backscatter:
		return "backscatter"
	case BotnetKeepalive:
		return "botnet"
	case Misconfiguration:
		return "misconfiguration"
	default:
		return "unknown"
	}
}

// archetypeWeights is the population mix; scanning dominates darkspace
// traffic in recent telescope studies.
var archetypeWeights = [NumArchetypes]float64{0.55, 0.12, 0.15, 0.12, 0.06}

// Source is one member of the radiation population.
type Source struct {
	ID         int
	IP         ipaddr.Addr
	Brightness float64 // expected packets per telescope window
	Anchor     float64 // beam anchor month (fractional)
	Type       Archetype
	Persistent bool // always-on background source
	Vertical   bool // Scanner only: one darkspace host, sequential port sweep
	V6         bool // IPv6 origin; IP is the class E embedding of IP6
	IP6        ipaddr.Addr6
}

// Population is an immutable set of radiation sources plus the beam
// model. Construction is deterministic in Config.Seed.
type Population struct {
	cfg     Config
	sources []Source
	// beams holds what the honeyfarm's visibility scan reads of each
	// source, one compact record per source, so the scan touches no
	// Source. It is built on the first honeyfarm query, not in
	// NewPopulation, so a population that only feeds a telescope never
	// pays for it.
	beamsOnce sync.Once
	beams     []beamRecord
}

// beamRecord is one source's visibility record: cfg.peakVisibility and
// cfg.betaStar of its brightness, computed once per source instead of
// per (source, month), and the source's anchor, persistence and
// address. It is 32 bytes.
type beamRecord struct {
	peak, beta, anchor float64
	ip                 ipaddr.Addr
	persistent         bool
}

// records returns the visibility records, built on first use.
func (p *Population) records() []beamRecord {
	p.beamsOnce.Do(p.fillBeams)
	return p.beams
}

// fillBeams builds the visibility records.
func (p *Population) fillBeams() {
	p.beams = make([]beamRecord, len(p.sources))
	for i := range p.sources {
		s := &p.sources[i]
		p.beams[i] = beamRecord{
			peak:       p.cfg.peakVisibility(s.Brightness),
			beta:       p.cfg.betaStar(s.Brightness),
			anchor:     s.Anchor,
			ip:         s.IP,
			persistent: s.Persistent,
		}
	}
}

// NewPopulation builds the population. It returns an error if the config
// is invalid.
func NewPopulation(cfg Config) (*Population, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	weights := cfg.mixWeights()
	p := &Population{cfg: cfg, sources: make([]Source, cfg.NumSources)}
	seen := make(map[ipaddr.Addr]bool, cfg.NumSources)
	for i := range p.sources {
		s := &p.sources[i]
		s.ID = i
		s.IP = randomPublicAddr(rng, cfg.Darkspace, seen)
		s.Brightness = cfg.ZM.Sample(rng)
		// Anchors extend past both ends of the study so edge months see
		// both arriving and departing beams.
		s.Anchor = -6 + rng.Float64()*(float64(cfg.Months)+12)
		s.Type = sampleArchetype(rng, weights)
		s.Persistent = rng.Float64() < cfg.Persistent
		// The workload-zoo draws ride hashUnit channels so a zero knob
		// leaves the rng stream — and thus the whole population —
		// byte-identical to the census configuration.
		if cfg.V6Sources > 0 && hashUnit(cfg.Seed, uint64(i), 0, chanV6) < cfg.V6Sources {
			s.V6 = true
			for salt := uint64(0); ; salt++ {
				s.IP6 = synthV6(uint64(cfg.Seed), uint64(i), salt)
				a := ipaddr.EmbedV6(s.IP6)
				if !seen[a] {
					seen[a] = true
					s.IP = a
					break
				}
			}
		}
		if s.Type == Scanner && cfg.VerticalScan > 0 {
			s.Vertical = hashUnit(cfg.Seed, uint64(i), 0, chanVertical) < cfg.VerticalScan
		}
	}
	return p, nil
}

// synthV6 derives a deterministic synthetic IPv6 origin in the
// documentation prefix 2001:db8::/32; salt breaks the rare embedding
// collision without disturbing other sources.
func synthV6(seed, id, salt uint64) ipaddr.Addr6 {
	x := seed ^ id*0x9E3779B97F4A7C15 ^ (salt+1)*0xD1B54A32D192ED03
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	y := x * 0x94D049BB133111EB
	y ^= y >> 31
	var a ipaddr.Addr6
	a[0], a[1], a[2], a[3] = 0x20, 0x01, 0x0d, 0xb8
	for k := 0; k < 4; k++ {
		a[4+k] = byte(x >> (8 * k))
		a[8+k] = byte(y >> (8 * k))
		a[12+k] = byte((x ^ y) >> (8 * (k + 4)))
	}
	return a
}

// Len returns the population size.
func (p *Population) Len() int { return len(p.sources) }

// Source returns the i-th source.
func (p *Population) Source(i int) Source { return p.sources[i] }

// Config returns the generating configuration (ground truth for
// validation).
func (p *Population) Config() Config { return p.cfg }

// beam returns the ground-truth activity probability of the source
// with record b in month m: a modified Cauchy around the source's
// anchor.
func (p *Population) beam(b *beamRecord, month float64) float64 {
	dt := math.Abs(month - b.anchor)
	return b.beta / (b.beta + math.Pow(dt, p.cfg.AlphaStar))
}

// telescopeEpisode is the sharp kernel governing when a source's scan
// episode sweeps the darkspace: much narrower than the honeyfarm beam so
// a telescope snapshot localizes the beam anchor in time.
//
// At the default exponent 2 it squares instead of calling math.Pow;
// the two agree bit for bit. Go's pow with y = 2 squares dt's Frexp
// mantissa and scales by Ldexp, and rounding commutes with a
// power-of-two scale, so Pow(dt, 2) == dt*dt at 0 and wherever the
// square is normal, 2^-511 <= dt < 2^512. dt stays there: an anchor,
// -6 + u*(Months+12), is a multiple of 2^-51, so |month - anchor| is 0,
// at least 2^-104, or (anchor 0) the month itself, which a window time
// makes 0 or at least 2^-52. TestEpisodeSquareIsPow checks it. The
// float64 conversion keeps the square from being fused into the add,
// as the Pow result never was.
func (p *Population) telescopeEpisode(s *Source, month float64) float64 {
	dt := math.Abs(month - s.Anchor)
	var x float64
	if p.cfg.TelescopeAlpha == 2 {
		x = float64(dt * dt)
	} else {
		x = math.Pow(dt, p.cfg.TelescopeAlpha)
	}
	return p.cfg.TelescopeBeta / (p.cfg.TelescopeBeta + x)
}

// telescopeActive reports whether source s beams into the telescope's
// darkspace during the window anchored at the given (fractional) month.
// Persistent sources are always active; others draw a Bernoulli from the
// sharp episode kernel. The draw is deterministic per (seed, source,
// month, channel) so telescope and honeyfarm visibility are independent
// but reproducible.
func (p *Population) telescopeActive(i int, month float64) bool {
	s := &p.sources[i]
	if s.Persistent {
		return true
	}
	u := hashUnit(p.cfg.Seed, uint64(i), monthKey(month), chanTelescope)
	return u < p.telescopeEpisode(s, month)
}

// visibleIn is the honeyfarm's one visibility scan: the indices, in
// order, of the sources that touch the honeyfarm during integer month
// m. A source's probability is the beam profile scaled by the
// log-brightness aperture, plus the beam-independent background floor.
// A month window collects for its whole span, so the beam is evaluated
// at the month midpoint m + 0.5 (anchoring at the month start would put
// every mid-month beam half a month away from its own collection
// window and artificially depress same-month correlation peaks).
func (p *Population) visibleIn(month int) []int32 {
	beams := p.records()
	seed, bg := p.cfg.Seed, p.cfg.Background
	mid := float64(month) + 0.5
	visible := make([]int32, 0, len(beams))
	for i := range beams {
		b := &beams[i]
		prob := b.peak
		if !b.persistent {
			prob = b.peak * (bg + (1-bg)*p.beam(b, mid))
		}
		if hashUnit(seed, uint64(i), uint64(month), chanHoneyfarm) < prob {
			visible = append(visible, int32(i))
		}
	}
	return visible
}

// channel salts separating the independent per-source Bernoulli draws
const (
	chanTelescope = 0x7e1e5c09e
	chanHoneyfarm = 0x40e79fa2
	chanV6        = 0x6b8f0aa17
	chanVertical  = 0x51c64e6d3
)

func sampleArchetype(rng *rand.Rand, weights [NumArchetypes]float64) Archetype {
	u := rng.Float64()
	acc := 0.0
	for a := Scanner; a < NumArchetypes; a++ {
		acc += weights[a]
		if u < acc {
			return a
		}
	}
	return Misconfiguration
}

// randomPublicAddr draws a distinct routable address outside the
// darkspace and outside RFC 1918 space.
func randomPublicAddr(rng *rand.Rand, dark ipaddr.Prefix, seen map[ipaddr.Addr]bool) ipaddr.Addr {
	for {
		a := ipaddr.Addr(rng.Uint32())
		if dark.Contains(a) || ipaddr.IsPrivate(a) || seen[a] {
			continue
		}
		// Exclude multicast/reserved 224.0.0.0/3 and 0.0.0.0/8.
		if uint32(a)>>29 == 7 || uint32(a)>>24 == 0 {
			continue
		}
		seen[a] = true
		return a
	}
}

// hashUnit maps (seed, id, key, channel) to a uniform float64 in [0, 1)
// via splitmix64, giving independent reproducible Bernoulli draws
// without storing per-source RNG state.
func hashUnit(seed int64, id, key, channel uint64) float64 {
	x := uint64(seed) ^ id*0x9E3779B97F4A7C15 ^ key*0xBF58476D1CE4E5B9 ^ channel*0x94D049BB133111EB
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}

// monthKey quantizes a fractional month to a stable hash key.
func monthKey(m float64) uint64 {
	return uint64(int64(math.Round(m * 1024)))
}
