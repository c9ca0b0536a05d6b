package scenario

// golden_test.go pins what a scenario file means: the config and store
// settings each shipped scenario decodes to, the message each malformed
// one is refused with, and the set of config keys the loader accepts.
// They are API: regenerate with `go test ./internal/scenario -run Golden
// -update` only for a change meant to alter them.

import (
	"encoding/json"
	"errors"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
)

var update = flag.Bool("update", false, "rewrite the golden files in testdata/")

// decoded is what a scenario's config block means.
type decoded struct {
	Config core.Config
	Store  StoreSettings
}

// goldenJSON decodes testdata/name into want; under -update it first
// rewrites the file from got.
func goldenJSON(t *testing.T, name string, got, want any) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err == nil {
			err = os.WriteFile(path, append(b, '\n'), 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, want); err != nil {
		t.Fatal(err)
	}
}

// goldenConfigs returns every shipped scenario's and tinyYAML's
// decoding, keyed by file name.
func goldenConfigs(t *testing.T) map[string]decoded {
	t.Helper()
	paths, err := filepath.Glob("../../scenarios/*.yaml")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no scenarios: %v", err)
	}
	paths = append(paths, writeScenario(t, "tinyYAML", tinyYAML+"assert:\n  - windows:\n"))
	out := make(map[string]decoded, len(paths))
	for _, p := range paths {
		sc, err := Load(p)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(p)] = decoded{sc.Config, sc.Store}
	}
	return out
}

// TestGoldenConfigs: each shipped scenario, and tinyYAML, decodes to
// the config and store settings recorded in testdata/configs.json.
func TestGoldenConfigs(t *testing.T) {
	got := goldenConfigs(t)
	var want map[string]decoded
	goldenJSON(t, "configs.json", got, &want)
	if len(got) != len(want) {
		t.Errorf("%d decoded scenarios, golden has %d", len(got), len(want))
	}
	for name, w := range want {
		if g, ok := got[name]; !ok {
			t.Errorf("%s: in the golden, not decoded", name)
		} else if !reflect.DeepEqual(g, w) {
			gb, _ := json.Marshal(g)
			wb, _ := json.Marshal(w)
			t.Errorf("%s decodes to\n%s\nwant\n%s", name, gb, wb)
		}
	}
}

// TestGoldenErrors: every failure mode is refused with the message
// recorded in testdata/errors.json. A bad scale may carry core.Preset's
// wording, as long as it names the key and both presets.
func TestGoldenErrors(t *testing.T) {
	got := make(map[string]string, len(failureModes))
	for _, tc := range failureModes {
		path := writeScenario(t, "bad.yaml", tc.yaml)
		_, err := Load(path)
		if err == nil {
			t.Fatalf("%s: loaded", tc.name)
		}
		got[tc.name] = strings.ReplaceAll(err.Error(), path, "bad.yaml")
	}
	var want map[string]string
	goldenJSON(t, "errors.json", got, &want)
	for name, msg := range got {
		if name == "bad scale" {
			for _, s := range []string{"config.scale", "quick", "default"} {
				if !strings.Contains(msg, s) {
					t.Errorf("%s: %q does not name %q", name, msg, s)
				}
			}
			continue
		}
		if msg != want[name] {
			t.Errorf("%s:\n got %q\nwant %q", name, msg, want[name])
		}
	}
}

// TestGoldenKeys: the loader accepts exactly the config keys in
// testdata/keys.txt ("radiation.x" is x in the radiation: block). Each
// is probed with a value no key takes, which must be refused as a bad
// value, never as an unknown key. (core's TestSettingKeysAreGolden
// holds its table to the same list.)
func TestGoldenKeys(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("testdata", "keys.txt"))
	if err != nil {
		t.Fatal(err)
	}
	keys := strings.Fields(string(b))
	probe := func(key string) error {
		block := "config:\n  " + key + ": [x]\n"
		if sub, ok := strings.CutPrefix(key, "radiation."); ok {
			block = "config:\n  radiation:\n    " + sub + ": [x]\n"
		}
		_, err := Load(writeScenario(t, "probe.yaml", "name: x\ncase: Z1\n"+block+"assert:\n  - windows:\n"))
		return err
	}
	for _, key := range append(keys, "bogus", "radiation.bogus") {
		err := probe(key)
		unknown := err != nil && strings.Contains(err.Error(), "unknown")
		if want := strings.HasSuffix(key, "bogus"); unknown != want || !errors.Is(err, ErrSchema) {
			t.Errorf("config key %s: %v", key, err)
		}
	}
}

// TestSnapshotMonthsRoundTrip: every snapshot_months value the shipped
// scenarios use comes back from Config.MonthTime through MonthOf, and
// the loader places that snapshot at MonthTime of the value.
func TestSnapshotMonthsRoundTrip(t *testing.T) {
	paths, err := filepath.Glob("../../scenarios/*.yaml")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		tree, err := parseYAML(src)
		if err != nil {
			t.Fatal(err)
		}
		block, _ := tree.(map[string]any)["config"].(map[string]any)
		if _, ok := block["snapshot_months"]; !ok {
			continue
		}
		sc, err := Load(p)
		if err != nil {
			t.Fatal(err)
		}
		for i, it := range block["snapshot_months"].([]any) {
			f := it.(float64)
			ts := sc.Config.MonthTime(f)
			if !ts.Equal(sc.Config.SnapshotTimes[i]) {
				t.Errorf("%s: snapshot %d at %v, want MonthTime(%g) = %v", p, i, sc.Config.SnapshotTimes[i], f, ts)
			}
			if back := sc.Config.MonthOf(ts); math.Abs(back-f) > 1e-12 {
				t.Errorf("%s: MonthOf(MonthTime(%g)) = %g", p, f, back)
			}
			n++
		}
	}
	if n == 0 {
		t.Fatal("no shipped scenario sets snapshot_months")
	}
}
