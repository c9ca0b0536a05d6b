package main

// main_test.go proves the CLI's failure-class contract end to end: a
// built binary run against crafted suites must exit with the code the
// doc comment promises and emit one machine-readable JSON failure
// record per problem on stderr.

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/testkit"
)

func TestMain(m *testing.M) { testkit.Main(m, nil) }

const tinySuite = `name: tiny
case: Z99999
config:
  scale: quick
  nv: 512
  leaf_size: 128
  sources: 2000
  months: 3
  snapshot_months: [0.5]
assert:
  - windows: {max_dropped_frac: 0.9}
`

// TestTinySuiteConfig: tinySuite's config block is the scenario
// package's tinyYAML, so it decodes to the config and store settings
// that package's golden records for it.
func TestTinySuiteConfig(t *testing.T) {
	dir := writeSuite(t, map[string]string{"tiny.yaml": tinySuite})
	sc, err := scenario.Load(filepath.Join(dir, "tiny.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile("../../internal/scenario/testdata/configs.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]struct {
		Config core.Config
		Store  scenario.StoreSettings
	}
	if err := json.Unmarshal(b, &golden); err != nil {
		t.Fatal(err)
	}
	want := golden["tinyYAML"]
	if !reflect.DeepEqual(sc.Config, want.Config) || sc.Store != want.Store {
		t.Errorf("tinySuite decodes to %+v %+v, want %+v %+v", sc.Config, sc.Store, want.Config, want.Store)
	}
}

func writeSuite(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// runCLI runs the built binary and returns exit code, stdout, and the
// decoded JSON failure records from stderr.
func runCLI(t *testing.T, args ...string) (int, string, []map[string]any) {
	t.Helper()
	r := testkit.Run(t, exec.Command(testkit.Build(t, "."), args...))
	var records []map[string]any
	for _, line := range strings.Split(r.Stderr, "\n") {
		line = strings.TrimSpace(line)
		if !strings.HasPrefix(line, "{") {
			continue // log noise
		}
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("stderr line %q is not JSON: %v", line, err)
		}
		records = append(records, rec)
	}
	return r.Code, r.Stdout, records
}

func TestExitOKAndList(t *testing.T) {
	dir := writeSuite(t, map[string]string{"tiny.yaml": tinySuite})
	code, out, recs := runCLI(t, "-dir", dir)
	if code != 0 || len(recs) != 0 {
		t.Fatalf("clean suite: exit %d, records %v", code, recs)
	}
	if !strings.Contains(out, "tiny\tZ99999\tpass") {
		t.Errorf("summary missing pass row:\n%s", out)
	}
	if code, out, _ := runCLI(t, "-dir", dir, "-list"); code != 0 || !strings.Contains(out, "tiny") {
		t.Errorf("-list: exit %d out %q", code, out)
	}
}

func TestExitAssertionFailure(t *testing.T) {
	// The acceptance check: corrupt one expected value; the run must
	// fail naming the scenario and the assertion.
	bad := tinySuite + "  - table2: {quantity: valid_packets, equals: 511}\n"
	dir := writeSuite(t, map[string]string{"tiny.yaml": bad})
	code, out, recs := runCLI(t, "-dir", dir)
	if code != 1 {
		t.Fatalf("exit %d, want 1\n%s", code, out)
	}
	if len(recs) != 1 || recs[0]["kind"] != "assertion" ||
		recs[0]["scenario"] != "tiny" || recs[0]["assertion"] != "table2.valid_packets" {
		t.Fatalf("failure records = %v", recs)
	}
	if !strings.Contains(out, "tiny\tZ99999\tfail") {
		t.Errorf("summary missing fail row:\n%s", out)
	}
}

func TestExitParseError(t *testing.T) {
	dir := writeSuite(t, map[string]string{"broken.yaml": "name: x\n\tboom"})
	code, _, recs := runCLI(t, "-dir", dir)
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if len(recs) != 1 || recs[0]["kind"] != "parse" {
		t.Fatalf("failure records = %v", recs)
	}
}

func TestExitSchemaError(t *testing.T) {
	dir := writeSuite(t, map[string]string{
		"odd.yaml": "name: x\ncase: Z1\nassert:\n  - frobnicate: {min: 1}\n",
	})
	code, _, recs := runCLI(t, "-dir", dir)
	if code != 3 {
		t.Fatalf("exit %d, want 3", code)
	}
	if len(recs) != 1 || recs[0]["kind"] != "schema" ||
		!strings.Contains(recs[0]["detail"].(string), "frobnicate") {
		t.Fatalf("failure records = %v", recs)
	}
}

func TestExitCancelled(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a multi-second study to interrupt")
	}
	// A deliberately heavy scenario so SIGINT lands mid-run.
	heavy := `name: heavy
case: Z99998
config:
  scale: quick
  nv: 4194304
  sources: 400000
assert:
  - windows:
`
	dir := writeSuite(t, map[string]string{"heavy.yaml": heavy})
	// SIGINT goes out once the CLI says its handler is installed: a
	// signal before that would kill it by the default action instead.
	p, err := testkit.Start(t, exec.Command(testkit.Build(t, "."), "-dir", dir), "scenarios: running ", 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Signal(syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	err = p.Wait()
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("interrupted run finished cleanly (stderr %q); grow the heavy scenario", p.Stderr())
	}
	if ee.ExitCode() != 4 {
		t.Fatalf("exit %d, want 4\nstderr: %s", ee.ExitCode(), p.Stderr())
	}
	if !strings.Contains(p.Stderr(), `"kind":"cancelled"`) {
		t.Errorf("no cancelled record on stderr: %s", p.Stderr())
	}
}

func TestExitAuditDrift(t *testing.T) {
	dir := writeSuite(t, map[string]string{"tiny.yaml": tinySuite})
	cases := filepath.Join(t.TempDir(), "cases.md")
	doc := "| Case ID | Title | Priority | Smoke | Status | Coverage |\n" +
		"| - | - | - | - | - | - |\n" +
		"| Z99999 | Tiny | p1 |  | done | `tiny.yaml` |\n" +
		"| W00001 | Drift | p1 |  | done |  |\n"
	if err := os.WriteFile(cases, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, recs := runCLI(t, "-dir", dir, "-audit", "-cases", cases)
	if code != 6 {
		t.Fatalf("exit %d, want 6", code)
	}
	if len(recs) != 1 || recs[0]["kind"] != "audit" || recs[0]["scenario"] != "W00001" {
		t.Fatalf("failure records = %v", recs)
	}

	// And the clean doc passes.
	clean := "| Case ID | Title | Priority | Smoke | Status | Coverage |\n" +
		"| - | - | - | - | - | - |\n" +
		"| Z99999 | Tiny | p1 |  | done | `tiny.yaml` |\n"
	if err := os.WriteFile(cases, []byte(clean), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, recs := runCLI(t, "-dir", dir, "-audit", "-cases", cases); code != 0 || len(recs) != 0 {
		t.Fatalf("clean audit: exit %d records %v", code, recs)
	}
}

func TestRunFilter(t *testing.T) {
	other := strings.Replace(tinySuite, "name: tiny", "name: other", 1)
	other = strings.Replace(other, "Z99999", "Z99997", 1)
	dir := writeSuite(t, map[string]string{"a.yaml": tinySuite, "b.yaml": other})
	code, out, _ := runCLI(t, "-dir", dir, "-run", "^tiny$")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "tiny") || strings.Contains(out, "other") {
		t.Errorf("-run filter leaked:\n%s", out)
	}
}

func TestJSONSummary(t *testing.T) {
	dir := writeSuite(t, map[string]string{"tiny.yaml": tinySuite})
	code, out, _ := runCLI(t, "-dir", dir, "-format", "json")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	var doc struct {
		Artifact string   `json:"artifact"`
		Columns  []string `json:"columns"`
		Rows     [][]any  `json:"rows"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("summary is not JSON: %v\n%s", err, out)
	}
	if doc.Artifact != "scenario_suite" || len(doc.Rows) != 1 {
		t.Errorf("summary doc = %+v", doc)
	}
}

// TestShippedZoo lists the repository's own scenarios/ directory
// through the built command, the operator entry point: -list names
// every shipped scenario. Root TestScenarioSuite runs the zoo and
// TestE2ECasesAudit audits docs/e2e-cases.md against it, each once;
// the exit codes of a run and an audit are this file's other tests.
func TestShippedZoo(t *testing.T) {
	const dir = "../../scenarios"
	scs, err := scenario.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) != 9 {
		t.Fatalf("scenarios/ holds %d scenarios, want 9", len(scs))
	}
	code, out, recs := runCLI(t, "-dir", dir, "-list")
	if code != 0 || len(recs) != 0 {
		t.Fatalf("-list: exit %d, records %v", code, recs)
	}
	for _, sc := range scs {
		if !strings.Contains(out, sc.Name) {
			t.Errorf("-list does not name %s:\n%s", sc.Name, out)
		}
	}
}
