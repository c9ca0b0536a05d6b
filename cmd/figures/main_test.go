package main

// main_test.go runs the built binary: a mistyped -scale or -only, or a
// study flag the config cannot take, must be refused before any study
// starts, and -only must write exactly the files it names.

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// bin is cmd/figures, built once for the run by TestMain.
var bin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "figures-bin")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bin = filepath.Join(dir, "figures")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		fmt.Fprintf(os.Stderr, "building figures: %v\n%s", err, out)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// figures returns a runner of the built binary reporting exit code,
// stderr and wall time.
func figures(t *testing.T) func(args ...string) (int, string, time.Duration) {
	t.Helper()
	return func(args ...string) (int, string, time.Duration) {
		cmd := exec.Command(bin, args...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		start := time.Now()
		err := cmd.Run()
		wall := time.Since(start)
		if err == nil {
			return 0, stderr.String(), wall
		}
		exit, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("running figures %v: %v", args, err)
		}
		return exit.ExitCode(), stderr.String(), wall
	}
}

// TestTypoRunsNoStudy: `-scale qiuck` used to start the full-scale
// study without a word, `-only fig9` to run a whole study, write
// nothing and exit 0, and `-nv 0` or `-sources -5` to run the preset's
// value as if the flag were not given.
func TestTypoRunsNoStudy(t *testing.T) {
	run := figures(t)
	for _, tc := range []struct {
		args   []string
		code   int    // 2 for a flag the parse refuses, 1 for a config New refuses
		naming string // the accepted list, or the broken rule, the refusal must carry
	}{
		{[]string{"-scale", "qiuck"}, 2, "quick"},
		{[]string{"-scale", "quick", "-only", "fig9"}, 2, "fig7"},
		{[]string{"-scale", "quick", "-only", "table_1"}, 2, "table1"},
		{[]string{"-scale", "quick", "-nv", "0"}, 1, "NV must be positive"},
		{[]string{"-scale", "quick", "-sources", "-5"}, 1, "NumSources must be positive"},
	} {
		out := filepath.Join(t.TempDir(), "out")
		code, stderr, wall := run(append(tc.args, "-out", out)...)
		if code != tc.code {
			t.Errorf("figures %v: exit %d, want %d\n%s", tc.args, code, tc.code, stderr)
		}
		if !strings.Contains(stderr, tc.naming) {
			t.Errorf("figures %v: refusal does not name %q:\n%s", tc.args, tc.naming, stderr)
		}
		if wall > time.Second {
			t.Errorf("figures %v: took %v to refuse: a study ran", tc.args, wall)
		}
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Errorf("figures %v: output directory was created (%v)", tc.args, err)
		}
	}
}

func TestOnlyWritesWhatItNames(t *testing.T) {
	out := filepath.Join(t.TempDir(), "out")
	if code, stderr, _ := figures(t)("-scale", "quick", "-only", "table1,fig7", "-out", out); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr)
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
