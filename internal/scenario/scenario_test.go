package scenario

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tinyYAML is a scenario small enough to run in milliseconds; tests
// that exercise the runner append assertions to it.
const tinyYAML = `name: tiny
case: Z99999
config:
  scale: quick
  nv: 512
  leaf_size: 128
  sources: 2000
  months: 3
  snapshot_months: [0.5]
`

func writeScenario(t *testing.T, name, content string) string {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// failureModes are the loader's negative paths: malformed YAML and
// schema violations, each with the sentinel and a word its error must
// carry.
var failureModes = []struct {
	name string
	yaml string
	want error
	msg  string // substring the error must carry
}{
	{"malformed yaml", "name: x\n\tbad tab", ErrParse, "tab"},
	{"unterminated quote", `name: "x`, ErrParse, "unterminated"},
	{"non-mapping top level", "- a\n- b", ErrSchema, "mapping"},
	{"unknown top-level key", "name: x\ncase: Z1\nbogus: 1\nassert:\n  - windows:\n", ErrSchema, "bogus"},
	{"missing name", "case: Z1\nassert:\n  - windows:\n", ErrSchema, "name"},
	{"missing case", "name: x\nassert:\n  - windows:\n", ErrSchema, "case"},
	{"no assertions", "name: x\ncase: Z1\n", ErrSchema, "assertion"},
	{"unknown config key", "name: x\ncase: Z1\nconfig:\n  frobnicate: 3\nassert:\n  - windows:\n", ErrSchema, "frobnicate"},
	{"removed study_workers key", "name: x\ncase: Z1\nconfig:\n  study_workers: 1\nassert:\n  - windows:\n", ErrSchema, "study_workers"},
	{"removed report_workers key", "name: x\ncase: Z1\nconfig:\n  report_workers: 1\nassert:\n  - windows:\n", ErrSchema, "report_workers"},
	{"bad scale", "name: x\ncase: Z1\nconfig:\n  scale: enormous\nassert:\n  - windows:\n", ErrSchema, "scale"},
	{"unknown radiation key", "name: x\ncase: Z1\nconfig:\n  radiation:\n    warp: 9\nassert:\n  - windows:\n", ErrSchema, "warp"},
	{"unknown archetype", "name: x\ncase: Z1\nconfig:\n  radiation:\n    mix: {gremlin: 1}\nassert:\n  - windows:\n", ErrSchema, "gremlin"},
	{"unknown assertion kind", "name: x\ncase: Z1\nassert:\n  - frob: {min: 1}\n", ErrSchema, "frob"},
	{"unknown assertion param", "name: x\ncase: Z1\nassert:\n  - law: {id: F3, min: 1, spin: 2}\n", ErrSchema, "spin"},
	{"unknown law", "name: x\ncase: Z1\nassert:\n  - law: {id: F9}\n", ErrSchema, "F9"},
	{"unknown table2 quantity", "name: x\ncase: Z1\nassert:\n  - table2: {quantity: hats, min: 1}\n", ErrSchema, "quantity"},
	{"value without tolerance", "name: x\ncase: Z1\nassert:\n  - table2: {quantity: valid_packets, value: 1.76}\n", ErrSchema, "tol"},
	{"no bound at all", "name: x\ncase: Z1\nassert:\n  - table2: {quantity: valid_packets}\n", ErrSchema, "bound"},
	{"unknown golden artifact", "name: x\ncase: Z1\nassert:\n  - golden: {artifact: fig9, file: f.tsv}\n", ErrSchema, "fig9"},
	{"invalid config rejected", "name: x\ncase: Z1\nconfig:\n  sources: -5\nassert:\n  - windows:\n", ErrSchema, "NumSources"},
	{"bad snapshot month", "name: x\ncase: Z1\nconfig:\n  snapshot_months: [99]\nassert:\n  - windows:\n", ErrSchema, "snapshot"},
}

// TestLoadFailureModes: every failure mode surfaces as the right
// sentinel with a message naming the problem, never loads as a runnable
// scenario.
func TestLoadFailureModes(t *testing.T) {
	for _, tc := range failureModes {
		t.Run(tc.name, func(t *testing.T) {
			path := writeScenario(t, "bad.yaml", tc.yaml)
			_, err := Load(path)
			if err == nil {
				t.Fatalf("loaded invalid scenario:\n%s", tc.yaml)
			}
			if !errors.Is(err, tc.want) {
				t.Errorf("error %v, want sentinel %v", err, tc.want)
			}
			if !strings.Contains(err.Error(), tc.msg) {
				t.Errorf("error %q does not name %q", err, tc.msg)
			}
			// The two sentinels are mutually exclusive failure classes.
			other := ErrSchema
			if tc.want == ErrSchema {
				other = ErrParse
			}
			if errors.Is(err, other) {
				t.Errorf("error %v matches both sentinels", err)
			}
		})
	}
}

func TestLoadDirRejectsDuplicateNames(t *testing.T) {
	dir := t.TempDir()
	doc := tinyYAML + "assert:\n  - windows:\n"
	for _, f := range []string{"a.yaml", "b.yaml"} {
		if err := os.WriteFile(filepath.Join(dir, f), []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, err := LoadDir(dir)
	if !errors.Is(err, ErrSchema) || !strings.Contains(err.Error(), "already used") {
		t.Fatalf("duplicate names gave %v", err)
	}
}

func TestLoadDirEmpty(t *testing.T) {
	if _, err := LoadDir(t.TempDir()); !errors.Is(err, ErrSchema) {
		t.Fatalf("empty dir gave %v", err)
	}
}

// TestRunToleranceMiss pins the acceptance contract: corrupting one
// expected value fails the run with a record naming the scenario and
// the offending assertion, while the honest sibling value passes.
func TestRunToleranceMiss(t *testing.T) {
	doc := tinyYAML + `assert:
  - windows: {max_dropped_frac: 0.9}
  - table2: {quantity: valid_packets, equals: 511}
`
	sc, err := Load(writeScenario(t, "miss.yaml", doc))
	if err != nil {
		t.Fatal(err)
	}
	r := Run(context.Background(), sc)
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	failed := r.FailedChecks()
	if len(failed) != 1 {
		t.Fatalf("failed checks = %+v, want exactly the corrupted one", failed)
	}
	if failed[0].Assertion != "table2.valid_packets" {
		t.Errorf("failure names %q, want table2.valid_packets", failed[0].Assertion)
	}
	if !strings.Contains(failed[0].Detail, "512") || !strings.Contains(failed[0].Detail, "511") {
		t.Errorf("detail %q does not show measured vs expected", failed[0].Detail)
	}
	if r.Checks[0].Assertion != "windows" || !r.Checks[0].Pass {
		t.Errorf("honest sibling check did not pass: %+v", r.Checks[0])
	}
}

// TestRunLaw: a law assertion holds the table's law to the scenario's
// bound, and a law that reads n/a fails rather than passing untested.
func TestRunLaw(t *testing.T) {
	doc := tinyYAML + `assert:
  - law: {id: T2}
  - law: {id: T2, min: 1, max: 1}
  - law: {id: F8b}
`
	sc, err := Load(writeScenario(t, "law.yaml", doc))
	if err != nil {
		t.Fatal(err)
	}
	r := Run(context.Background(), sc)
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	for i, want := range []struct {
		pass   bool
		detail string
	}{{true, "PASS"}, {false, "want = 1"}, {false, "n/a"}} {
		c := r.Checks[i]
		if c.Pass != want.pass || !strings.Contains(c.Detail, want.detail) {
			t.Errorf("check %d: %+v, want pass=%v and %q", i, c, want.pass, want.detail)
		}
	}
}

// TestRunCancelled: a cancelled context must surface as the context's
// error on the result, not as a pass and not as a panic.
func TestRunCancelled(t *testing.T) {
	sc, err := Load(writeScenario(t, "tiny.yaml", tinyYAML+"assert:\n  - windows:\n"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := Run(ctx, sc)
	if r.Err == nil || !errors.Is(r.Err, context.Canceled) {
		t.Fatalf("cancelled run gave err=%v", r.Err)
	}
	if len(r.Checks) != 0 {
		t.Errorf("cancelled run made %d checks", len(r.Checks))
	}
}

// TestRunAllKeepsOrderAndRecords: results stay index-aligned with the
// input and a cancelled suite still yields one record per scenario.
func TestRunAllKeepsOrderAndRecords(t *testing.T) {
	dir := t.TempDir()
	for i, name := range []string{"alpha", "beta"} {
		doc := strings.Replace(tinyYAML, "name: tiny", "name: "+name, 1)
		doc = strings.Replace(doc, "Z99999", "Z9999"+string(rune('0'+i)), 1)
		doc += "assert:\n  - windows:\n"
		if err := os.WriteFile(filepath.Join(dir, name+".yaml"), []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	scs, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	results := RunAll(context.Background(), scs, 2)
	if len(results) != len(scs) {
		t.Fatalf("%d results for %d scenarios", len(results), len(scs))
	}
	for i, r := range results {
		if r.Scenario != scs[i] {
			t.Errorf("result %d is for %s, want %s", i, r.Scenario.Name, scs[i].Name)
		}
		if r.Err != nil || len(r.FailedChecks()) > 0 {
			t.Errorf("%s: %v %+v", r.Scenario.Name, r.Err, r.FailedChecks())
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i, r := range RunAll(ctx, scs, 2) {
		if r == nil {
			t.Fatalf("cancelled suite dropped record %d", i)
		}
		if r.Err == nil {
			t.Errorf("cancelled suite: scenario %s has no error", r.Scenario.Name)
		}
	}
}
