package main

// main_test.go runs the built binary: a mistyped flag, or a study flag
// the config cannot take, must be refused before any study starts, and
// what the command writes — to a directory or to stdout, as TSV or
// JSON, all artifacts or the -only subset — must be the renderer's
// golden bytes.

import (
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/report"
	"repro/internal/testkit"
)

func TestMain(m *testing.M) { testkit.Main(m, nil) }

// experiments runs the built binary to completion.
func experiments(t *testing.T, args ...string) testkit.Result {
	t.Helper()
	return testkit.Run(t, exec.Command(testkit.Build(t, "."), args...))
}

// golden reads the committed quick-scale TSV render of one artifact.
func golden(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "internal", "report", "testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestTypoRunsNoStudy: `-scale qiuck` used to start the full-scale
// study without a word, `-only fig9` to run a whole study, write
// nothing and exit 0, and `-nv 0` or `-sources -5` to run the preset's
// value as if the flag were not given. A -format or -only with nowhere
// to write, or two places to write, would run a study for nothing.
func TestTypoRunsNoStudy(t *testing.T) {
	for _, tc := range []struct {
		args   []string // DIR is the output directory
		code   int      // 2 for a flag the parse refuses, 1 for a config New refuses
		naming string   // the accepted list, or the broken rule, the refusal must carry
	}{
		{[]string{"-scale", "qiuck", "-artifacts", "DIR"}, 2, "quick"},
		{[]string{"-scale", "quick", "-only", "fig9", "-artifacts", "DIR"}, 2, "fig7"},
		{[]string{"-scale", "quick", "-only", "table_1", "-artifacts", "DIR"}, 2, "table1"},
		{[]string{"-scale", "quick", "-nv", "0", "-artifacts", "DIR"}, 1, "NV must be positive"},
		{[]string{"-scale", "quick", "-sources", "-5", "-artifacts", "DIR"}, 1, "NumSources must be positive"},
		{[]string{"-scale", "quick", "-format", "xml", "-artifacts", "DIR"}, 2, "-format"},
		{[]string{"-scale", "quick", "-only", "table1"}, 2, "-only"},
		{[]string{"-scale", "quick", "-format", "json"}, 2, "-format"},
		{[]string{"-scale", "quick", "-artifacts", "DIR", "-stdout"}, 2, "-stdout"},
	} {
		out := filepath.Join(t.TempDir(), "out")
		args := slices.Clone(tc.args)
		if i := slices.Index(args, "DIR"); i >= 0 {
			args[i] = out
		}
		r := experiments(t, args...)
		if r.Code != tc.code {
			t.Errorf("experiments %v: exit %d, want %d\n%s", tc.args, r.Code, tc.code, r.Stderr)
		}
		if !strings.Contains(r.Stderr, tc.naming) {
			t.Errorf("experiments %v: refusal does not name %q:\n%s", tc.args, tc.naming, r.Stderr)
		}
		if r.Wall > time.Second {
			t.Errorf("experiments %v: took %v to refuse: a study ran", tc.args, r.Wall)
		}
		if strings.Contains(r.Stderr, "running study") {
			t.Errorf("experiments %v: a study started:\n%s", tc.args, r.Stderr)
		}
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Errorf("experiments %v: output directory was created (%v)", tc.args, err)
		}
	}
}

// TestArtifactsAreTheGoldens: the quick preset's study passes its laws
// and writes the seven artifacts byte-identical to the renderer's
// goldens, and nothing else.
func TestArtifactsAreTheGoldens(t *testing.T) {
	out := filepath.Join(t.TempDir(), "out")
	r := experiments(t, "-scale", "quick", "-artifacts", out)
	if r.Code != 0 {
		t.Fatalf("exit %d\n%s", r.Code, r.Stderr)
	}
	if !strings.Contains(r.Stdout, "passed, 0 failed") {
		t.Errorf("law table footer missing:\n%s", r.Stdout)
	}
	entries, err := os.ReadDir(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(report.All()) {
		t.Errorf("wrote %d files, want %d", len(entries), len(report.All()))
	}
	for _, id := range report.All() {
		name := report.Filename(id, "tsv")
		got, err := os.ReadFile(filepath.Join(out, name))
		if err != nil {
			t.Error(err)
			continue
		}
		if string(got) != golden(t, name) {
			t.Errorf("%s differs from internal/report/testdata/%s", name, name)
		}
	}
}

func TestOnlyWritesWhatItNames(t *testing.T) {
	out := filepath.Join(t.TempDir(), "out")
	if r := experiments(t, "-scale", "quick", "-only", "table1,fig7", "-artifacts", out); r.Code != 0 {
		t.Fatalf("exit %d\n%s", r.Code, r.Stderr)
	}
	entries, err := os.ReadDir(out)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if want := []string{"fig7_fig8.tsv", "table1.tsv"}; !slices.Equal(names, want) {
		t.Errorf("wrote %v, want %v", names, want)
	}
}

// TestStdoutIsTheFiles: -stdout prints exactly the bytes -artifacts
// writes, each file under its "==> name <==" header, and sends the law
// table to stderr.
func TestStdoutIsTheFiles(t *testing.T) {
	t.Run("tsv", func(t *testing.T) {
		r := experiments(t, "-scale", "quick", "-stdout", "-only", "table2,fig5")
		if r.Code != 0 {
			t.Fatalf("exit %d\n%s", r.Code, r.Stderr)
		}
		want := "\n==> table2.tsv <==\n" + golden(t, "table2.tsv") + "\n==> fig5.tsv <==\n" + golden(t, "fig5.tsv")
		if r.Stdout != want {
			t.Errorf("stdout is not table2.tsv and fig5.tsv:\n%s", r.Stdout)
		}
		if !strings.Contains(r.Stderr, "passed, 0 failed") {
			t.Errorf("law table footer missing from stderr:\n%s", r.Stderr)
		}
	})
	t.Run("json", func(t *testing.T) {
		out := filepath.Join(t.TempDir(), "out")
		if r := experiments(t, "-scale", "quick", "-format", "json", "-artifacts", out); r.Code != 0 {
			t.Fatalf("-artifacts: exit %d\n%s", r.Code, r.Stderr)
		}
		r := experiments(t, "-scale", "quick", "-format", "json", "-stdout")
		if r.Code != 0 {
			t.Fatalf("-stdout: exit %d\n%s", r.Code, r.Stderr)
		}
		var want strings.Builder
		for _, id := range report.All() {
			name := report.Filename(id, "json")
			b, err := os.ReadFile(filepath.Join(out, name))
			if err != nil {
				t.Fatal(err)
			}
			want.WriteString("\n==> " + name + " <==\n" + string(b))
		}
		if r.Stdout != want.String() {
			t.Errorf("-stdout JSON differs from the -artifacts files")
		}
	})
}
