// Package radiation generates synthetic Internet background radiation:
// the unsolicited traffic (scanners, worms, backscatter, botnet
// keep-alives, misconfigurations) that darkspace telescopes and
// honeyfarms observe. It is the data substitute for the paper's
// proprietary CAIDA and GreyNoise corpora (see DESIGN.md §2).
//
// The generator maintains a persistent population of sources. Each
// source has
//
//   - a stable public IPv4 address,
//   - a brightness d (expected packets per telescope window) drawn from
//     the paper's Zipf-Mandelbrot law,
//   - an archetype that shapes its packets (protocol, ports, TTL,
//     destination pattern),
//   - an anchor month a and a beam profile: the source is active in
//     month m with probability β*/(β* + |m-a|^α*) — the "correlated
//     high-frequency beam of sources that drifts on a time scale of a
//     month" the paper concludes with,
//   - optionally a persistent flag (always-on background scanners).
//
// The telescope sees every active source (a /8 aperture misses nothing
// that scans broadly); the honeyfarm sees an active source with
// probability capped by the paper's log-brightness law min(1,
// log2(d)/BrightLog2). The measurement pipeline is blind to all of these
// parameters and must re-derive them from packets; cmd/experiments
// scores recovered values against both this ground truth and the
// paper's claims.
package radiation

import (
	"fmt"

	"repro/internal/ipaddr"
	"repro/internal/stats"
)

// Config parameterizes a synthetic radiation population.
type Config struct {
	Seed int64 // master seed; everything else derives from it

	// Population and brightness.
	NumSources int                  // population size (potential scanners)
	ZM         stats.ZipfMandelbrot // per-window brightness law
	Persistent float64              // fraction of always-on background sources

	// Geometry.
	Darkspace ipaddr.Prefix // the telescope's monitored prefix

	// Study period.
	Months int // number of monthly epochs

	// Ground-truth beam dynamics (the quantities Figures 7 and 8 must
	// recover, approximately, from the data).
	AlphaStar  float64 // temporal decay exponent α*, paper-typical 1
	BetaBase   float64 // β* away from the dip, paper-typical 4
	BetaDip    float64 // β* at the dip (d ≈ 2^DipLog2), paper-typical 1
	DipLog2    float64 // center of the β dip in log2(d), paper-typical 10 (d≈10^3)
	DipWidth   float64 // width of the dip in octaves
	Background float64 // beam-independent visibility floor (0..1)

	// Telescope episode kernel. A darkspace only records a source while
	// its broad scan actually sweeps the monitored /8 — a brief episode
	// near the beam anchor — whereas the honeyfarm's enrichment pipeline
	// keeps recording the source as the beam drifts on the month scale.
	// The episode kernel is a sharp modified Cauchy; it must be much
	// narrower than the honeyfarm kernel or the measured temporal
	// correlation flattens (the snapshot would no longer localize the
	// beam anchor in time).
	TelescopeAlpha float64 // episode kernel exponent, default 2
	TelescopeBeta  float64 // episode kernel scale, default 0.2 (≈±0.5 month)

	// Honeyfarm aperture: a source of brightness d is honeyfarm-visible
	// with probability at most min(1, log2(d)/BrightLog2). The paper's
	// value is log2(sqrt(NV)) = 15 for NV = 2^30.
	BrightLog2 float64

	// Noise sources that the telescope's validity filter must discard:
	// fraction of emitted packets carrying RFC 1918 (bogon) sources.
	BogonRate float64

	// Workload-zoo knobs (scenario suites). All default to zero values
	// that reproduce the paper's census mix byte for byte; the extra
	// Bernoulli draws they introduce ride the hashUnit channels, not
	// the population RNG, so enabling one never perturbs another's
	// stream.

	// Mix optionally overrides the built-in archetype population shares
	// in Archetype order (scanner, worm, backscatter, botnet,
	// misconfiguration). Empty means the built-in census mix; otherwise
	// it must hold one non-negative weight per archetype with a
	// positive sum (weights are normalized).
	Mix []float64

	// VerticalScan is the fraction of Scanner sources that run vertical
	// campaigns: instead of spraying SYNs across the darkspace at a few
	// well-known ports (horizontal), a vertical scanner hammers one
	// darkspace host and sweeps its port space sequentially.
	VerticalScan float64

	// V6Sources is the fraction of sources with IPv6 origins. Their
	// 128-bit addresses enter the 32-bit matrices through the
	// deterministic class E embedding (ipaddr.EmbedV6), so the
	// hypersparse hot path is address-family blind; Source.IP6 keeps
	// the original form for the D4M boundary.
	V6Sources float64
}

// DefaultConfig returns a laptop-scale configuration that preserves the
// paper's statistical shape. NV-dependent values assume 2^20-packet
// telescope windows (so sqrt(NV) = 2^10).
func DefaultConfig() Config {
	return Config{
		Seed:       1,
		NumSources: 200000,
		ZM:         stats.PaperZM(1 << 18),
		// Always-on benign crawlers (Shodan, Censys, ...) are a small
		// population, but because they are telescope-active in every
		// window they are strongly over-represented in snapshots; keep
		// the fraction low or the temporal curves flatten.
		Persistent:     0.004,
		Darkspace:      ipaddr.MustParsePrefix("44.0.0.0/8"),
		Months:         15,
		AlphaStar:      1.0,
		BetaBase:       4.0,
		BetaDip:        1.0,
		DipLog2:        10,
		DipWidth:       3,
		Background:     0.03,
		TelescopeAlpha: 2.0,
		TelescopeBeta:  0.2,
		BrightLog2:     10,
		BogonRate:      0.002,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.NumSources <= 0:
		return fmt.Errorf("radiation: NumSources must be positive, got %d", c.NumSources)
	case c.Months <= 0:
		return fmt.Errorf("radiation: Months must be positive, got %d", c.Months)
	case c.ZM.Alpha <= 1:
		return fmt.Errorf("radiation: ZM.Alpha must exceed 1, got %g", c.ZM.Alpha)
	case c.ZM.DMax < 2:
		return fmt.Errorf("radiation: ZM.DMax must be at least 2, got %g", c.ZM.DMax)
	case c.AlphaStar <= 0 || c.BetaBase <= 0 || c.BetaDip <= 0:
		return fmt.Errorf("radiation: beam parameters must be positive")
	case c.TelescopeAlpha <= 0 || c.TelescopeBeta <= 0:
		return fmt.Errorf("radiation: telescope episode kernel parameters must be positive")
	case c.Background < 0 || c.Background > 1:
		return fmt.Errorf("radiation: Background must be in [0,1], got %g", c.Background)
	case c.Persistent < 0 || c.Persistent > 1:
		return fmt.Errorf("radiation: Persistent must be in [0,1], got %g", c.Persistent)
	case c.BrightLog2 <= 0:
		return fmt.Errorf("radiation: BrightLog2 must be positive, got %g", c.BrightLog2)
	case c.BogonRate < 0 || c.BogonRate > 0.5:
		return fmt.Errorf("radiation: BogonRate must be in [0, 0.5], got %g", c.BogonRate)
	case c.Darkspace.Bits < 1 || c.Darkspace.Bits > 24:
		return fmt.Errorf("radiation: Darkspace must be /1../24, got %v", c.Darkspace)
	case c.VerticalScan < 0 || c.VerticalScan > 1:
		return fmt.Errorf("radiation: VerticalScan must be in [0,1], got %g", c.VerticalScan)
	case c.V6Sources < 0 || c.V6Sources > 1:
		return fmt.Errorf("radiation: V6Sources must be in [0,1], got %g", c.V6Sources)
	}
	if len(c.Mix) > 0 {
		if len(c.Mix) != int(NumArchetypes) {
			return fmt.Errorf("radiation: Mix must hold %d weights, got %d", NumArchetypes, len(c.Mix))
		}
		sum := 0.0
		for i, w := range c.Mix {
			if w < 0 {
				return fmt.Errorf("radiation: Mix[%d] (%s) is negative: %g", i, Archetype(i), w)
			}
			sum += w
		}
		if sum <= 0 {
			return fmt.Errorf("radiation: Mix weights sum to zero")
		}
	}
	return nil
}

// mixWeights returns the normalized archetype shares: Config.Mix when
// set, the built-in census mix otherwise.
func (c Config) mixWeights() [NumArchetypes]float64 {
	if len(c.Mix) == 0 {
		return archetypeWeights
	}
	var out [NumArchetypes]float64
	sum := 0.0
	for _, w := range c.Mix {
		sum += w
	}
	for i, w := range c.Mix {
		out[i] = w / sum
	}
	return out
}

// betaStar returns the ground-truth β*(d): BetaBase with a Gaussian dip
// to BetaDip centered at d = 2^DipLog2 (the paper's Figure 8 shape).
func (c Config) betaStar(d float64) float64 {
	if d < 1 {
		d = 1
	}
	x := (log2(d) - c.DipLog2) / c.DipWidth
	return c.BetaBase - (c.BetaBase-c.BetaDip)*gauss(x)
}

// peakVisibility returns the ground-truth honeyfarm aperture
// min(1, log2(d)/BrightLog2) for a source of brightness d (the paper's
// Figure 4 law).
func (c Config) peakVisibility(d float64) float64 {
	if d < 2 {
		d = 2 // log2(1) = 0 would make unit-brightness sources invisible
	}
	v := log2(d) / c.BrightLog2
	if v > 1 {
		return 1
	}
	return v
}
