package cluster

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// FuzzParseSpec: the StoreAddr cluster-spec grammar never panics, and a
// spec it accepts names at least one clean address, sets no option below
// one, and says the same thing again when written back out.
func FuzzParseSpec(f *testing.F) {
	for _, s := range []string{
		"a:1",
		"a:1,b:2,c:3",
		" a:1 , b:2 ,c:3 ; replicas=3 ; io_timeout=250ms ; retries=2 ",
		"a:1;io_timeout=1h2m3.5s",
		"a:1;replicas=0", "a:1;replicas=-1", "a:1;vnodes=9223372036854775808",
		"a:1;vnodes=16", "a:1;dial_timeout=1s;io_timeout=1h2m3.5s",
		"a:1;io_timeout=-5ms", "a:1;io_timeout=0", "a:1;io_timeout=fast",
		"a:1;what=3", "a:1;replicas", "a:1;=", "a:1;;;", "", " ; ", ",,,", ";replicas=2",
		"a:1;replicas=2;replicas=3", "a=b:1;retries = 4",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		cfg, err := parseSpec(spec)
		if err != nil {
			return
		}
		if len(cfg.Addrs) == 0 {
			t.Fatalf("parseSpec(%q) accepted a spec with no addresses", spec)
		}
		for _, a := range cfg.Addrs {
			if a == "" || a != strings.TrimSpace(a) || strings.ContainsAny(a, ",;") {
				t.Fatalf("parseSpec(%q): address %q", spec, a)
			}
		}
		if cfg.Replicas < 0 || cfg.Retry.Attempts < 0 || cfg.IOTimeout < 0 {
			t.Fatalf("parseSpec(%q) set an option below one: %+v", spec, cfg)
		}
		out := strings.Join(cfg.Addrs, ",")
		for _, opt := range []struct {
			key string
			val any
			set bool
		}{
			{"replicas", cfg.Replicas, cfg.Replicas != 0},
			{"retries", cfg.Retry.Attempts, cfg.Retry.Attempts != 0},
			{"io_timeout", cfg.IOTimeout, cfg.IOTimeout != 0},
		} {
			if opt.set {
				out += fmt.Sprintf(";%s=%v", opt.key, opt.val)
			}
		}
		again, err := parseSpec(out)
		if err != nil || !reflect.DeepEqual(again, cfg) {
			t.Fatalf("parseSpec(%q) = %+v, written back as %q it parses to %+v, %v", spec, cfg, out, again, err)
		}
	})
}
