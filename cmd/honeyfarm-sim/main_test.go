package main

import (
	"os/exec"
	"strings"
	"testing"

	"repro/internal/testkit"
)

func TestMain(m *testing.M) { testkit.Main(m, nil) }

// TestRefusesNonPositiveSensors: -sensors 0 and -sensors -1 used to run
// a study with no sensors and exit 0. They are refused with exit 2,
// naming the flag, before any month is ingested.
func TestRefusesNonPositiveSensors(t *testing.T) {
	bin := testkit.Build(t, ".")
	for _, v := range []string{"0", "-1"} {
		r := testkit.Run(t, exec.Command(bin, "-sources", "2000", "-months", "1", "-sensors", v))
		if r.Code != 2 {
			t.Errorf("-sensors %s: exit %d, want 2\n%s", v, r.Code, r.Stderr)
		}
		if !strings.Contains(r.Stderr, "-sensors ") {
			t.Errorf("-sensors %s: refusal does not name the flag:\n%s", v, r.Stderr)
		}
		if r.Stdout != "" {
			t.Errorf("-sensors %s: ingested months anyway:\n%s", v, r.Stdout)
		}
	}
}
