// Package testkit is the harness every test that builds or starts a
// process goes through, plus the few fixtures more than one package's
// tests share. It imports only the standard library, so any package's
// in-package tests can use it without an import cycle.
//
// A test package that builds a command or re-executes itself names
// Main as its TestMain:
//
//	func TestMain(m *testing.M) { testkit.Main(m, nil) }
//
// Build compiles a command once per test process; Run runs one to
// completion; Start launches one and waits for its readiness line;
// Reexec starts the test binary itself as a helper process.
package testkit

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// helperEnv names the helper a re-executed test binary runs (Reexec).
const helperEnv = "TESTKIT_HELPER"

// builds holds what Build compiled in this process, in one directory
// Main removes once the tests are done.
var builds struct {
	sync.Mutex
	dir  string
	bins map[string]string // package directory → binary
}

// Main is a test package's TestMain. Started by Reexec, the process
// runs helpers[name] with the arguments it was given and exits 0 when
// the helper returns; otherwise Main runs the tests, removes what Build
// built, and exits with the tests' code.
func Main(m *testing.M, helpers map[string]func(args []string)) {
	if name := os.Getenv(helperEnv); name != "" {
		helper := helpers[name]
		if helper == nil {
			fmt.Fprintf(os.Stderr, "testkit: no helper %q\n", name)
			os.Exit(2)
		}
		helper(os.Args[1:])
		os.Exit(0)
	}
	code := m.Run()
	if builds.dir != "" {
		os.RemoveAll(builds.dir)
	}
	os.Exit(code)
}

// Build compiles the command in the package directory pkg (relative to
// the test's package, as `go build` takes it) once per test process and
// returns the binary's path. The binary lives until Main removes it.
// Go's test cache keys a run on the files the test opens, not on what
// `go build` reads, so Build opens the command's in-module sources: an
// edit to any of them reruns the test instead of replaying a pass.
func Build(t testing.TB, pkg string) string {
	t.Helper()
	abs, err := filepath.Abs(pkg)
	if err != nil {
		t.Fatal(err)
	}
	builds.Lock()
	defer builds.Unlock()
	if bin := builds.bins[abs]; bin != "" {
		return bin
	}
	if builds.dir == "" {
		if builds.dir, err = os.MkdirTemp("", "testkit-bin"); err != nil {
			t.Fatal(err)
		}
		builds.bins = make(map[string]string)
	}
	const sources = `{{if and .Module .Module.Main}}{{range .GoFiles}}{{$.Dir}}/{{.}}{{"\n"}}{{end}}{{range .SFiles}}{{$.Dir}}/{{.}}{{"\n"}}{{end}}{{end}}`
	list, err := exec.Command("go", "list", "-deps", "-f", sources, abs).Output()
	if err != nil {
		t.Fatalf("testkit: listing %s's sources: %v", pkg, err)
	}
	for _, file := range strings.Split(strings.TrimSpace(string(list)), "\n") {
		if f, err := os.Open(file); err == nil { // one that is gone fails the build below
			f.Close()
		}
	}
	bin := filepath.Join(builds.dir, filepath.Base(abs))
	if out, err := exec.Command("go", "build", "-o", bin, abs).CombinedOutput(); err != nil {
		t.Fatalf("testkit: building %s: %v\n%s", pkg, err, out)
	}
	builds.bins[abs] = bin
	return bin
}

// Result is a finished run of a command.
type Result struct {
	Code           int // exit code; 0 on success
	Stdout, Stderr string
	Wall           time.Duration
}

// Run runs cmd to completion and reports how it ended. A command that
// could not start, or that a context killed, fails the test.
func Run(t testing.TB, cmd *exec.Cmd) Result {
	t.Helper()
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	r := Result{Stdout: stdout.String(), Stderr: stderr.String(), Wall: time.Since(start)}
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit) && exit.ExitCode() >= 0:
		r.Code = exit.ExitCode()
	case err != nil:
		t.Fatalf("testkit: running %v: %v\nstderr:\n%s", cmd.Args, err, r.Stderr)
	}
	return r
}

// DiffLines returns "" when a and b are equal, and otherwise the first
// line where they differ, numbered, so a failure names the divergence
// instead of dumping two whole renders.
func DiffLines(a, b string) string {
	if a == b {
		return ""
	}
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := range max(len(al), len(bl)) {
		if i >= len(al) || i >= len(bl) || al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  got:  %s\n  want: %s", i+1, lineAt(al, i), lineAt(bl, i))
		}
	}
	return "" // unreachable: unequal strings differ on some line
}

func lineAt(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "<missing>"
}

// EightSnapshots is the snapshot schedule of the wall-clock speedup
// gates: the 15th of months 2 through 9 after start. Snapshot captures
// dominate a study's wall clock, and the paper's five jobs on four
// workers cap the ideal speedup at ~2.5x, too close to a 2x bar on a
// shared runner. At eight jobs the critical path is two captures (ideal
// ~4x), so passing 2x needs only ~50 % parallel efficiency.
func EightSnapshots(start time.Time) []time.Time {
	times := make([]time.Time, 0, 8)
	for m := 2; m < 10; m++ {
		times = append(times, start.AddDate(0, m, 14))
	}
	return times
}
