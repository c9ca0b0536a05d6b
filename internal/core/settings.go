package core

import (
	"flag"
	"fmt"
	"math"
	"slices"
	"strconv"

	"repro/internal/ipaddr"
)

// setting is one study parameter, declared once: the scenario key and
// the flag that write it, and the Config field it lands in.
type setting struct {
	key   string // scenario config: key; "radiation.x" is x in the radiation: block
	flag  string // command-line flag, "" when no command has one
	usage string
	optIn bool                         // the flag is registered only by a command that names it
	set   func(c *Config, v any) error // v as YAML decodes it: a float64 number or a string
}

var settings = []setting{
	{key: "seed", flag: "seed", usage: "override random seed (0 is seed 0)", set: intField(func(c *Config) *int64 { return &c.Radiation.Seed })},
	{key: "nv", flag: "nv", usage: "override telescope window size NV", set: intField(func(c *Config) *int { return &c.NV })},
	{key: "leaf_size", flag: "leaf-size", optIn: true, usage: "override entries per hypersparse leaf matrix (and packets per engine batch)", set: intField(func(c *Config) *int { return &c.LeafSize })},
	{key: "sources", flag: "sources", usage: "override population size", set: intField(func(c *Config) *int { return &c.Radiation.NumSources })},
	{key: "months", flag: "months", optIn: true, usage: "override study length in months", set: intField(func(c *Config) *int { return &c.Radiation.Months })},
	{key: "workers", flag: "workers", usage: "fan-out of every layer: engine shards, months/snapshots in flight, freeze, fits (0 = GOMAXPROCS)", set: intField(func(c *Config) *int { return &c.Workers })},
	{key: "sensors", usage: "honeyfarm sensor count", set: intField(func(c *Config) *int { return &c.Sensors })},
	{key: "min_band_sources", usage: "bands below this population are skipped in fits", set: intField(func(c *Config) *int { return &c.MinBandSources })},
	{key: "anon_passphrase", usage: "CryptoPAN key derivation", set: textField(func(c *Config, s string) error { c.AnonPassphrase = s; return nil })},
	{key: "radiation.persistent", usage: "fraction of always-on background sources", set: floatField(func(c *Config) *float64 { return &c.Radiation.Persistent })},
	{key: "radiation.bogon_rate", usage: "fraction of packets with RFC 1918 sources", set: floatField(func(c *Config) *float64 { return &c.Radiation.BogonRate })},
	{key: "radiation.bright_log2", usage: "honeyfarm aperture: log2 of the brightness seen with certainty", set: floatField(func(c *Config) *float64 { return &c.Radiation.BrightLog2 })},
	{key: "radiation.zm_alpha", usage: "Zipf-Mandelbrot brightness exponent", set: floatField(func(c *Config) *float64 { return &c.Radiation.ZM.Alpha })},
	{key: "radiation.zm_delta", usage: "Zipf-Mandelbrot offset", set: floatField(func(c *Config) *float64 { return &c.Radiation.ZM.Delta })},
	{key: "radiation.zm_dmax", usage: "largest brightness drawn", set: floatField(func(c *Config) *float64 { return &c.Radiation.ZM.DMax })},
	{key: "radiation.alpha_star", usage: "beam temporal decay exponent", set: floatField(func(c *Config) *float64 { return &c.Radiation.AlphaStar })},
	{key: "radiation.beta_base", usage: "beam scale away from the dip", set: floatField(func(c *Config) *float64 { return &c.Radiation.BetaBase })},
	{key: "radiation.beta_dip", usage: "beam scale at the dip", set: floatField(func(c *Config) *float64 { return &c.Radiation.BetaDip })},
	{key: "radiation.dip_log2", usage: "log2 brightness at the centre of the dip", set: floatField(func(c *Config) *float64 { return &c.Radiation.DipLog2 })},
	{key: "radiation.dip_width", usage: "width of the dip in octaves", set: floatField(func(c *Config) *float64 { return &c.Radiation.DipWidth })},
	{key: "radiation.background", usage: "beam-independent visibility floor", set: floatField(func(c *Config) *float64 { return &c.Radiation.Background })},
	{key: "radiation.telescope_alpha", usage: "telescope episode kernel exponent", set: floatField(func(c *Config) *float64 { return &c.Radiation.TelescopeAlpha })},
	{key: "radiation.telescope_beta", usage: "telescope episode kernel scale", set: floatField(func(c *Config) *float64 { return &c.Radiation.TelescopeBeta })},
	{key: "radiation.vertical_scan", usage: "fraction of scanners that sweep one host's ports", set: floatField(func(c *Config) *float64 { return &c.Radiation.VerticalScan })},
	{key: "radiation.v6_sources", usage: "fraction of sources with IPv6 origins", set: floatField(func(c *Config) *float64 { return &c.Radiation.V6Sources })},
	{key: "radiation.darkspace", usage: "the telescope's monitored prefix, a CIDR string", set: textField(func(c *Config, s string) (err error) { c.Radiation.Darkspace, err = ipaddr.ParsePrefix(s); return err })},
}

func intField[T int | int64](field func(*Config) *T) func(*Config, any) error {
	return func(c *Config, v any) error {
		f, ok := v.(float64)
		if !ok || f != math.Trunc(f) {
			return fmt.Errorf("must be an integer, got %v", v)
		}
		*field(c) = T(f)
		return nil
	}
}

func floatField(field func(*Config) *float64) func(*Config, any) error {
	return func(c *Config, v any) error {
		f, ok := v.(float64)
		if !ok {
			return fmt.Errorf("must be a number, got %v", v)
		}
		*field(c) = f
		return nil
	}
}

func textField(set func(c *Config, s string) error) func(*Config, any) error {
	return func(c *Config, v any) error {
		s, ok := v.(string)
		if !ok {
			return fmt.Errorf("must be a string")
		}
		return set(c, s)
	}
}

// Set writes v, a value as YAML decodes it, onto the field the scenario
// config: key names. known is false when no setting has that key.
func (c *Config) Set(key string, v any) (known bool, err error) {
	i := slices.IndexFunc(settings, func(s setting) bool { return s.key == key })
	if i < 0 {
		return false, nil
	}
	return true, settings[i].set(c, v)
}

// Preset returns the named scale preset, "quick" (QuickConfig) or
// "default" (DefaultConfig): the one place a scale name is read.
func Preset(name string) (Config, error) {
	switch name {
	case "quick":
		return QuickConfig(), nil
	case "default":
		return DefaultConfig(), nil
	}
	return Config{}, fmt.Errorf("no such preset %q (accepted: quick, default)", name)
}

// yamlValue reads a flag's text as YAML would: a number when it spells
// one (an integer only while a float64 holds it exactly), else text.
func yamlValue(s string) any {
	if n, err := strconv.ParseInt(s, 0, 64); err == nil {
		if int64(float64(n)) != n {
			return s
		}
		return float64(n)
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return f
	}
	return s
}

// StudyFlags registers -scale and every setting's flag on fs (an opt-in
// one, -months or -leaf-size, only when extra names it) and returns what
// makes the Config they select: the preset with each given flag applied
// whatever its value (-seed 0 is seed 0; New refuses -nv 0).
func StudyFlags(fs *flag.FlagSet, extra ...string) func() Config {
	preset := DefaultConfig()
	fs.Func("scale", "preset: quick or default (default \"default\"; studyd \"quick\")", func(name string) (err error) {
		preset, err = Preset(name)
		return err
	})
	var given []func(*Config)
	for _, s := range settings {
		if s.flag != "" && (!s.optIn || slices.Contains(extra, s.flag)) {
			fs.Func(s.flag, s.usage, func(text string) error {
				v := yamlValue(text)
				given = append(given, func(c *Config) { s.set(c, v) }) // its error is the parse's, below
				return s.set(new(Config), v)
			})
		}
	}
	return func() Config {
		cfg := preset
		for _, apply := range given {
			apply(&cfg)
		}
		return cfg
	}
}
