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
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/radiation"
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

// StoreSettings are a scenario's own config keys: how its study reaches
// the store, and the store's durability and fault schedule.
type StoreSettings struct {
	Mode StoreMode
	// WAL makes the scenario's store servers durable: each gets a
	// temporary data dir and appends mutations to a checksummed WAL
	// before acking, so a restarted server comes back with its state.
	WAL bool
	// ChaosBlackholeBytes, with StoreCluster, silently blackholes one
	// replica after this many bytes of table traffic have flowed through
	// it — a byte-counted (so deterministic) mid-study replica loss.
	ChaosBlackholeBytes int64
	// ChaosCrashBytes, with WAL, closes one store server after this
	// many bytes of table traffic — cleanly, not a SIGKILL — and restarts
	// it on the same address from its WAL, while client retries absorb
	// the restart window.
	ChaosCrashBytes int64
}

// Scenario is one executable workload: a named pipeline configuration
// and its expected-result assertions.
type Scenario struct {
	Name        string
	Case        string // e2e-cases Case ID (Z000xx) this file covers
	Description string
	Config      core.Config
	Store       StoreSettings
	Assertions  []Assertion

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
			if err := decodeConfig(m, path, sc); err != nil {
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

// LoadDir loads every *.yaml/*.yml under dir, sorted by filename (the
// order os.ReadDir lists them in).
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

// decodeConfig decodes the config block onto sc: the scale preset, then
// each key — a row of core's settings table, or the scenario's own. An
// unknown key is a schema error, so a typo cannot run the wrong study.
func decodeConfig(m map[string]any, path string, sc *Scenario) error {
	sc.Config, sc.Store.Mode = core.QuickConfig(), StoreMemory
	if v, ok := m["scale"]; ok {
		var err error
		if sc.Config, err = core.Preset(fmt.Sprint(v)); err != nil {
			return schemaErrf(path, "config.scale: %v", err)
		}
	}
	st := &sc.Store
	for key, v := range m {
		var err error
		switch key {
		case "scale": // handled above
		case "store":
			switch mode, _ := v.(string); StoreMode(mode) {
			case StoreMemory, StoreTripled, StoreCluster:
				st.Mode = StoreMode(mode)
			default:
				err = fmt.Errorf("must be memory, tripled, or cluster, got %v", v)
			}
		case "wal":
			var ok bool
			if st.WAL, ok = v.(bool); !ok {
				err = fmt.Errorf("must be a boolean, got %v", v)
			}
		case "chaos_blackhole_bytes":
			if err = setInt(&st.ChaosBlackholeBytes, v); err == nil && st.ChaosBlackholeBytes <= 0 {
				err = fmt.Errorf("must be > 0, got %v", v)
			}
		case "chaos_crash_bytes":
			if err = setInt(&st.ChaosCrashBytes, v); err == nil && st.ChaosCrashBytes <= 0 {
				err = fmt.Errorf("must be > 0, got %v", v)
			}
		case "snapshot_months":
			list, _ := v.([]any)
			if len(list) == 0 {
				err = fmt.Errorf("must be a non-empty list of numbers, got %v", v)
			}
			sc.Config.SnapshotTimes = make([]time.Time, len(list))
			for i, it := range list {
				f, ok := it.(float64)
				if !ok {
					err = fmt.Errorf("element %d must be a number, got %v", i, it)
					break
				}
				sc.Config.SnapshotTimes[i] = sc.Config.MonthTime(f)
			}
		case "radiation":
			sub, ok := v.(map[string]any)
			if !ok {
				err = fmt.Errorf("must be a mapping")
			}
			for k, v := range sub {
				known := k == "mix"
				if known {
					sc.Config.Radiation.Mix, err = decodeMix(v)
				} else if known, err = sc.Config.Set("radiation."+k, v); !known {
					return schemaErrf(path, "config.radiation: unknown key %q", k)
				}
				if err != nil {
					err = fmt.Errorf("%s: %v", k, err)
					break
				}
			}
		default:
			// A dotted table key lives in a sub-block, not at the top.
			var known bool
			if known, err = sc.Config.Set(key, v); !known || strings.Contains(key, ".") {
				return schemaErrf(path, "unknown config key %q", key)
			}
		}
		if err != nil {
			return schemaErrf(path, "config.%s: %v", key, err)
		}
	}
	switch {
	case st.ChaosBlackholeBytes > 0 && st.Mode != StoreCluster:
		return schemaErrf(path,
			"config.chaos_blackhole_bytes needs store: cluster (a single store has no replica to lose)")
	case st.WAL && st.Mode == StoreMemory:
		return schemaErrf(path,
			"config.wal needs store: tripled or cluster (memory mode has no server to make durable)")
	case st.ChaosCrashBytes > 0 && !st.WAL:
		return schemaErrf(path,
			"config.chaos_crash_bytes needs wal: true (a crashed server without a WAL loses the study)")
	case st.ChaosCrashBytes > 0 && st.ChaosBlackholeBytes > 0:
		return schemaErrf(path,
			"config.chaos_crash_bytes and config.chaos_blackhole_bytes cannot be combined")
	}
	return nil
}

// decodeMix reads weights named as radiation.Archetype spells them, in
// Archetype order (an empty mix sums to zero, which Validate refuses).
func decodeMix(v any) ([]float64, error) {
	m, ok := v.(map[string]any)
	if !ok {
		return nil, fmt.Errorf("must be a mapping of archetype weights")
	}
	out := make([]float64, radiation.NumArchetypes)
	for key, v := range m {
		a := radiation.Archetype(0)
		for a < radiation.NumArchetypes && a.String() != key {
			a++
		}
		if a == radiation.NumArchetypes {
			return nil, fmt.Errorf("unknown archetype %q", key)
		}
		if err := setFloat(&out[a], v); err != nil {
			return nil, fmt.Errorf("%s: %v", key, err)
		}
	}
	return out, nil
}

func setInt[T int | int64](dst *T, v any) error {
	f, ok := v.(float64)
	if !ok || f != math.Trunc(f) {
		return fmt.Errorf("must be an integer, got %v", v)
	}
	*dst = T(f)
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
