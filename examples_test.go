package repro

import (
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/testkit"
)

// TestExamplesRun builds every examples/ program and runs it once: each
// must exit 0 and print something. An example is a library walk-through,
// so one that stops compiling or running has stopped showing the API.
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs every example")
	}
	dirs, err := filepath.Glob(filepath.Join("examples", "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) == 0 {
		t.Fatal("no examples found")
	}
	for _, dir := range dirs {
		t.Run(filepath.Base(dir), func(t *testing.T) {
			r := testkit.Run(t, exec.Command(testkit.Build(t, "./"+dir)))
			if r.Code != 0 {
				t.Fatalf("exit %d\nstderr:\n%s", r.Code, r.Stderr)
			}
			if r.Stdout == "" {
				t.Fatalf("printed nothing\nstderr:\n%s", r.Stderr)
			}
			t.Logf("ran in %v", r.Wall.Round(time.Millisecond))
		})
	}
}
