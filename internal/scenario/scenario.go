// Package scenario makes docs/e2e-cases.md executable: each YAML file
// under scenarios/ names a workload (a generator configuration routed
// through the full core.Config pipeline) plus a block of
// expected-result assertions — exact values with tolerances for Table
// II quantities, fitted Zipf-Mandelbrot exponents, Figure 4
// bright>faint orderings, temporal-decay shapes, golden-artifact
// references, and store-parity cross-checks. The runner executes a
// directory of scenarios with per-scenario pass/fail (parallel over
// internal/pool), the same suite runs as Go subtests from
// integration_test.go, and the audit mode fails when the e2e-cases
// table and the shipped scenarios drift apart.
package scenario

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/ipaddr"
)

// StoreMode selects how a scenario's study reaches its D4M tables.
type StoreMode string

const (
	// StoreMemory runs the pure in-process path (no store service).
	StoreMemory StoreMode = "memory"
	// StoreTripled routes tables through one in-process tripled server.
	StoreTripled StoreMode = "tripled"
	// StoreCluster routes tables through a 3-node R=2 consistent-hash
	// cluster of in-process servers.
	StoreCluster StoreMode = "cluster"
)

// Scenario is one executable workload: a named pipeline configuration
// and its expected-result assertions.
type Scenario struct {
	Name        string
	Case        string // e2e-cases Case ID (Z000xx) this file covers
	Description string
	Config      core.Config
	Store       StoreMode
	// WAL makes the scenario's store servers durable: each gets a
	// temporary data dir and appends mutations to a checksummed WAL
	// before acking, so a crashed server can restart with its state.
	WAL bool
	// ChaosBlackholeBytes, with StoreCluster, silently blackholes one
	// replica after this many bytes of table traffic have flowed through
	// it — a byte-counted (so deterministic) mid-study replica loss.
	ChaosBlackholeBytes int64
	// ChaosCrashBytes, with WAL, crashes one store server after this
	// many bytes of table traffic: its listener and in-memory state are
	// discarded mid-ingest and it restarts on the same address from its
	// WAL, while client retries absorb the restart window.
	ChaosCrashBytes int64
	Assertions      []Assertion

	// Path is the source file, for error messages and for resolving
	// golden-artifact references relative to the scenario.
	Path string
}

func schemaErrf(path, format string, args ...any) error {
	return fmt.Errorf("%w: %s: %s", ErrSchema, path, fmt.Sprintf(format, args...))
}

// Load reads and validates one scenario file.
func Load(path string) (*Scenario, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	root, err := parseYAML(src)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	doc, ok := root.(map[string]any)
	if !ok {
		return nil, schemaErrf(path, "top level must be a mapping")
	}
	sc := &Scenario{Path: path}
	for key, v := range doc {
		switch key {
		case "name":
			if sc.Name, ok = v.(string); !ok {
				return nil, schemaErrf(path, "name must be a string")
			}
		case "case":
			if sc.Case, ok = v.(string); !ok {
				return nil, schemaErrf(path, "case must be a string")
			}
		case "description":
			if sc.Description, ok = v.(string); !ok {
				return nil, schemaErrf(path, "description must be a string")
			}
		case "config":
			m, ok := v.(map[string]any)
			if !ok {
				return nil, schemaErrf(path, "config must be a mapping")
			}
			sc.Config, sc.Store, sc.WAL, sc.ChaosBlackholeBytes, sc.ChaosCrashBytes, err = decodeConfig(m, path)
			if err != nil {
				return nil, err
			}
		case "assert":
			list, ok := v.([]any)
			if !ok {
				return nil, schemaErrf(path, "assert must be a list")
			}
			sc.Assertions, err = decodeAssertions(list, path)
			if err != nil {
				return nil, err
			}
		default:
			return nil, schemaErrf(path, "unknown top-level key %q", key)
		}
	}
	switch {
	case sc.Name == "":
		return nil, schemaErrf(path, "name is required")
	case sc.Case == "":
		return nil, schemaErrf(path, "case (e2e-cases ID) is required")
	case len(sc.Assertions) == 0:
		return nil, schemaErrf(path, "at least one assertion is required")
	}
	if err := sc.Config.Validate(); err != nil {
		return nil, schemaErrf(path, "invalid config: %v", err)
	}
	return sc, nil
}

// LoadDir loads every *.yaml/*.yml under dir, sorted by filename.
func LoadDir(dir string) ([]*Scenario, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	var paths []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if ext := filepath.Ext(e.Name()); ext == ".yaml" || ext == ".yml" {
			paths = append(paths, filepath.Join(dir, e.Name()))
		}
	}
	sort.Strings(paths)
	if len(paths) == 0 {
		return nil, schemaErrf(dir, "no scenario files")
	}
	out := make([]*Scenario, 0, len(paths))
	seen := map[string]string{}
	for _, p := range paths {
		sc, err := Load(p)
		if err != nil {
			return nil, err
		}
		if prev, dup := seen[sc.Name]; dup {
			return nil, schemaErrf(p, "scenario name %q already used by %s", sc.Name, prev)
		}
		seen[sc.Name] = p
		out = append(out, sc)
	}
	return out, nil
}

// decodeConfig maps the config block onto core.Config, starting from
// the named scale preset. Every key is checked; unknown keys are
// schema errors so a typo cannot silently run the wrong workload.
func decodeConfig(m map[string]any, path string) (core.Config, StoreMode, bool, int64, int64, error) {
	cfg := core.QuickConfig()
	store := StoreMemory
	var wal bool
	var chaosBytes, crashBytes int64
	if v, ok := m["scale"]; ok {
		switch v {
		case "quick":
			cfg = core.QuickConfig()
		case "default":
			cfg = core.DefaultConfig()
		default:
			return cfg, store, false, 0, 0, schemaErrf(path, "config.scale must be quick or default, got %v", v)
		}
	}
	for key, v := range m {
		var err error
		switch key {
		case "scale": // handled above
		case "seed":
			err = setInt64(&cfg.Radiation.Seed, v)
		case "nv":
			err = setInt(&cfg.NV, v)
		case "leaf_size":
			err = setInt(&cfg.LeafSize, v)
		case "sources":
			err = setInt(&cfg.Radiation.NumSources, v)
		case "months":
			err = setInt(&cfg.Radiation.Months, v)
		case "workers":
			err = setInt(&cfg.Workers, v)
		case "sensors":
			err = setInt(&cfg.Sensors, v)
		case "min_band_sources":
			err = setInt(&cfg.MinBandSources, v)
		case "anon_passphrase":
			s, ok := v.(string)
			if !ok {
				err = fmt.Errorf("must be a string")
			} else {
				cfg.AnonPassphrase = s
			}
		case "store":
			switch v {
			case "memory":
				store = StoreMemory
			case "tripled":
				store = StoreTripled
			case "cluster":
				store = StoreCluster
			default:
				err = fmt.Errorf("must be memory, tripled, or cluster, got %v", v)
			}
		case "wal":
			b, ok := v.(bool)
			if !ok {
				err = fmt.Errorf("must be a boolean, got %v", v)
			} else {
				wal = b
			}
		case "chaos_blackhole_bytes":
			if err = setInt64(&chaosBytes, v); err == nil && chaosBytes <= 0 {
				err = fmt.Errorf("must be > 0, got %v", v)
			}
		case "chaos_crash_bytes":
			if err = setInt64(&crashBytes, v); err == nil && crashBytes <= 0 {
				err = fmt.Errorf("must be > 0, got %v", v)
			}
		case "snapshot_months":
			var fracs []float64
			if fracs, err = floatList(v); err == nil {
				if len(fracs) == 0 {
					err = fmt.Errorf("must not be empty")
					break
				}
				times := make([]time.Time, len(fracs))
				for i, f := range fracs {
					times[i] = cfg.StudyStart.Add(time.Duration(f * 30.44 * 24 * float64(time.Hour)))
				}
				cfg.SnapshotTimes = times
			}
		case "radiation":
			sub, ok := v.(map[string]any)
			if !ok {
				err = fmt.Errorf("must be a mapping")
			} else {
				err = decodeRadiation(sub, &cfg)
			}
		default:
			return cfg, store, false, 0, 0, schemaErrf(path, "unknown config key %q", key)
		}
		if err != nil {
			return cfg, store, false, 0, 0, schemaErrf(path, "config.%s: %v", key, err)
		}
	}
	switch {
	case chaosBytes > 0 && store != StoreCluster:
		return cfg, store, false, 0, 0, schemaErrf(path,
			"config.chaos_blackhole_bytes needs store: cluster (a single store has no replica to lose)")
	case wal && store == StoreMemory:
		return cfg, store, false, 0, 0, schemaErrf(path,
			"config.wal needs store: tripled or cluster (memory mode has no server to make durable)")
	case crashBytes > 0 && !wal:
		return cfg, store, false, 0, 0, schemaErrf(path,
			"config.chaos_crash_bytes needs wal: true (a crashed server without a WAL loses the study)")
	case crashBytes > 0 && chaosBytes > 0:
		return cfg, store, false, 0, 0, schemaErrf(path,
			"config.chaos_crash_bytes and config.chaos_blackhole_bytes cannot be combined")
	}
	return cfg, store, wal, chaosBytes, crashBytes, nil
}

func decodeRadiation(m map[string]any, cfg *core.Config) error {
	r := &cfg.Radiation
	for key, v := range m {
		var err error
		switch key {
		case "persistent":
			err = setFloat(&r.Persistent, v)
		case "bogon_rate":
			err = setFloat(&r.BogonRate, v)
		case "bright_log2":
			err = setFloat(&r.BrightLog2, v)
		case "zm_alpha":
			err = setFloat(&r.ZM.Alpha, v)
		case "zm_delta":
			err = setFloat(&r.ZM.Delta, v)
		case "zm_dmax":
			err = setFloat(&r.ZM.DMax, v)
		case "alpha_star":
			err = setFloat(&r.AlphaStar, v)
		case "beta_base":
			err = setFloat(&r.BetaBase, v)
		case "beta_dip":
			err = setFloat(&r.BetaDip, v)
		case "dip_log2":
			err = setFloat(&r.DipLog2, v)
		case "dip_width":
			err = setFloat(&r.DipWidth, v)
		case "background":
			err = setFloat(&r.Background, v)
		case "telescope_alpha":
			err = setFloat(&r.TelescopeAlpha, v)
		case "telescope_beta":
			err = setFloat(&r.TelescopeBeta, v)
		case "vertical_scan":
			err = setFloat(&r.VerticalScan, v)
		case "v6_sources":
			err = setFloat(&r.V6Sources, v)
		case "darkspace":
			s, ok := v.(string)
			if !ok {
				err = fmt.Errorf("must be a CIDR string")
			} else {
				r.Darkspace, err = ipaddr.ParsePrefix(s)
			}
		case "mix":
			sub, ok := v.(map[string]any)
			if !ok {
				err = fmt.Errorf("must be a mapping of archetype weights")
				break
			}
			r.Mix, err = decodeMix(sub)
		default:
			return fmt.Errorf("unknown key %q", key)
		}
		if err != nil {
			return fmt.Errorf("%s: %v", key, err)
		}
	}
	return nil
}

// archetypeOrder matches radiation.Archetype iota order.
var archetypeOrder = []string{"scanner", "worm", "backscatter", "botnet", "misconfiguration"}

func decodeMix(m map[string]any) ([]float64, error) {
	out := make([]float64, len(archetypeOrder))
	seen := 0
	for key, v := range m {
		idx := -1
		for i, name := range archetypeOrder {
			if key == name {
				idx = i
				break
			}
		}
		if idx < 0 {
			return nil, fmt.Errorf("unknown archetype %q", key)
		}
		if err := setFloat(&out[idx], v); err != nil {
			return nil, fmt.Errorf("%s: %v", key, err)
		}
		seen++
	}
	if seen == 0 {
		return nil, fmt.Errorf("empty mix")
	}
	return out, nil
}

func setInt(dst *int, v any) error {
	f, ok := v.(float64)
	if !ok || f != math.Trunc(f) {
		return fmt.Errorf("must be an integer, got %v", v)
	}
	*dst = int(f)
	return nil
}

func setInt64(dst *int64, v any) error {
	f, ok := v.(float64)
	if !ok || f != math.Trunc(f) {
		return fmt.Errorf("must be an integer, got %v", v)
	}
	*dst = int64(f)
	return nil
}

func setFloat(dst *float64, v any) error {
	f, ok := v.(float64)
	if !ok {
		return fmt.Errorf("must be a number, got %v", v)
	}
	*dst = f
	return nil
}

func floatList(v any) ([]float64, error) {
	list, ok := v.([]any)
	if !ok {
		return nil, fmt.Errorf("must be a list of numbers, got %v", v)
	}
	out := make([]float64, len(list))
	for i, it := range list {
		f, ok := it.(float64)
		if !ok {
			return nil, fmt.Errorf("element %d must be a number, got %v", i, it)
		}
		out[i] = f
	}
	return out, nil
}
