package scenario

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeCases(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "e2e-cases.md")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const casesHeader = `# Cases

| Case ID | Title | Priority | Smoke | Status | Coverage |
| ------- | ----- | -------- | ----- | ------ | -------- |
`

// tinyScenario loads one in-memory scenario claiming the given case ID.
func tinyScenario(t *testing.T, caseID string) *Scenario {
	t.Helper()
	doc := strings.Replace(tinyYAML, "Z99999", caseID, 1) + "assert:\n  - windows:\n"
	sc, err := Load(writeScenario(t, "s.yaml", doc))
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func findingProblems(fs []AuditFinding) string {
	var b strings.Builder
	for _, f := range fs {
		b.WriteString(f.Case + ": " + f.Problem + "\n")
	}
	return b.String()
}

func TestAuditDoneRowWithoutCoverage(t *testing.T) {
	path := writeCases(t, casesHeader+
		"| W00001 | Covered | p1 | smoke | done | `TestSomething` |\n"+
		"| W00002 | Drifted | p1 |  | done |  |\n"+
		"| W00003 | Planned is fine | p2 |  | planned |  |\n")
	findings, err := Audit(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 || findings[0].Case != "W00002" {
		t.Fatalf("findings = %s, want exactly W00002's empty coverage", findingProblems(findings))
	}
	if !strings.Contains(findings[0].Problem, "Coverage") {
		t.Errorf("problem %q does not name the Coverage cell", findings[0].Problem)
	}
}

func TestAuditZTableCrossCheck(t *testing.T) {
	doc := casesHeader +
		"| Z00001 | Has a file | p1 | smoke | done | `scenarios/a.yaml` |\n" +
		"| Z00002 | No file | p1 | smoke | done | `scenarios/ghost.yaml` |\n"
	path := writeCases(t, doc)

	// Z00002 is done in the doc but no scenario ships it; the loaded
	// scenario cites Z00009, absent from the doc entirely.
	scs := []*Scenario{tinyScenario(t, "Z00001"), tinyScenario(t, "Z00009")}
	findings, err := Audit(path, scs)
	if err != nil {
		t.Fatal(err)
	}
	byCase := map[string]string{}
	for _, f := range findings {
		byCase[f.Case] = f.Problem
	}
	if len(findings) != 2 {
		t.Fatalf("findings = %s, want Z00002 and Z00009", findingProblems(findings))
	}
	if !strings.Contains(byCase["Z00002"], "no scenario file") {
		t.Errorf("Z00002 problem = %q", byCase["Z00002"])
	}
	if !strings.Contains(byCase["Z00009"], "absent") {
		t.Errorf("Z00009 problem = %q", byCase["Z00009"])
	}
}

func TestAuditStatusMismatchAndDuplicates(t *testing.T) {
	doc := casesHeader +
		"| Z00001 | Planned but shipped | p1 |  | planned |  |\n" +
		"| Z00001 | Duplicate ID | p1 |  | planned |  |\n"
	path := writeCases(t, doc)
	findings, err := Audit(path, []*Scenario{tinyScenario(t, "Z00001")})
	if err != nil {
		t.Fatal(err)
	}
	all := findingProblems(findings)
	if !strings.Contains(all, "duplicate") {
		t.Errorf("no duplicate-ID finding in %s", all)
	}
	if !strings.Contains(all, `"planned"`) {
		t.Errorf("no status-mismatch finding in %s", all)
	}
}

func TestAuditCleanRepoDocAgrees(t *testing.T) {
	// The real document and the real scenario suite must agree — the
	// same check CI runs via `scenarios -audit`.
	scs, err := LoadDir(filepath.Join("..", "..", "scenarios"))
	if err != nil {
		t.Fatal(err)
	}
	findings, err := Audit(filepath.Join("..", "..", "docs", "e2e-cases.md"), scs)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Errorf("repo doc drift:\n%s", findingProblems(findings))
	}
}

func TestAuditMissingDoc(t *testing.T) {
	if _, err := Audit(filepath.Join(t.TempDir(), "nope.md"), nil); err == nil {
		t.Fatal("missing doc accepted")
	}
}

// Guard against the scenario loader accepting the audit testdata by
// accident: tinyScenario must actually run (sanity for the fixtures
// other tests lean on).
func TestTinyScenarioRuns(t *testing.T) {
	sc := tinyScenario(t, "Z99990")
	if r := Run(context.Background(), sc); r.Err != nil || len(r.FailedChecks()) > 0 {
		t.Fatalf("tiny fixture failed: err=%v checks=%+v", r.Err, r.Checks)
	}
}
