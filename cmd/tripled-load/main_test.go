package main

import (
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"

	"repro/internal/testkit"
)

func TestMain(m *testing.M) { testkit.Main(m, nil) }

// TestClusterChaosAndRestartRuns: a clean 3-node R=2 run; node 1
// blackholed at half-run (must finish, fail reads over, mark it down);
// a durable node restarted from its WAL at half-run; a rerun replaying
// that log; and bad sizes, refused with exit 2 naming the flag.
func TestClusterChaosAndRestartRuns(t *testing.T) {
	bin := testkit.Build(t, ".")
	dir := filepath.Join(t.TempDir(), "wal")
	for _, tc := range []struct {
		args []string
		code int
		want string // a pattern stdout or stderr must match
	}{
		{[]string{"-nodes", "3", "-replicas", "2", "-clients", "4", "-ops", "1000"}, 0, `overall: `},
		{[]string{"-nodes", "3", "-replicas", "2", "-chaos", "blackhole", "-clients", "4", "-ops", "600"},
			0, `cluster: [1-9][0-9]* read failovers, 1 nodes marked down`},
		{[]string{"-data-dir", dir, "-chaos", "crash", "-clients", "4", "-ops", "600"}, 0, `crash: node 0 restarted in`},
		{[]string{"-data-dir", dir, "-clients", "2", "-ops", "200"}, 0, `node 0: recovered`},
		{[]string{"-clients", "-1"}, 2, `tripled-load: -clients must be >= 1`},
		{[]string{"-batch", "-1"}, 2, `tripled-load: -batch must be >= 0`},
	} {
		r := testkit.Run(t, exec.Command(bin, append([]string{"-batch", "64"}, tc.args...)...))
		if r.Code != tc.code {
			t.Fatalf("%v: exit %d, want %d\n%s", tc.args, r.Code, tc.code, r.Stderr)
		}
		if !regexp.MustCompile(tc.want).MatchString(r.Stdout + r.Stderr) {
			t.Errorf("%v: output lacks %q:\n%s%s", tc.args, tc.want, r.Stdout, r.Stderr)
		}
	}
}
