package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/testkit"
)

func TestMain(m *testing.M) { testkit.Main(m, nil) }

// TestRefusesNonPositiveSizes: -windows 0 used to capture one window
// anyway, and -nv 0 or -leaf-size 0 to write the whole capture file
// before the engine refused the value. Each is refused with exit 2,
// naming the flag, before the capture file exists.
func TestRefusesNonPositiveSizes(t *testing.T) {
	bin := testkit.Build(t, ".")
	for _, tc := range []struct{ flag, value string }{
		{"-windows", "0"},
		{"-windows", "-1"},
		{"-nv", "0"},
		{"-nv", "-4"},
		{"-leaf-size", "0"},
	} {
		file := filepath.Join(t.TempDir(), "w.pcap")
		r := testkit.Run(t, exec.Command(bin, "-sources", "2000", "-nv", "4096", "-pcap", file, tc.flag, tc.value))
		if r.Code != 2 {
			t.Errorf("%s %s: exit %d, want 2\n%s", tc.flag, tc.value, r.Code, r.Stderr)
		}
		if !strings.Contains(r.Stderr, tc.flag+" ") {
			t.Errorf("%s %s: refusal does not name the flag:\n%s", tc.flag, tc.value, r.Stderr)
		}
		if _, err := os.Stat(file); !os.IsNotExist(err) {
			t.Errorf("%s %s: capture file was written (%v)", tc.flag, tc.value, err)
		}
	}
}
