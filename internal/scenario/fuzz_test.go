package scenario

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// emitYAML writes a tree parseYAML produced back out in the subset's
// plainest form — a block mapping or sequence at the top, flow
// collections below, every string and key quoted — and reports false for
// the one thing the subset cannot quote: a string holding both kinds of
// quote (it has no escapes).
func emitYAML(sb *strings.Builder, v any, top bool) bool {
	quote := func(s string) bool {
		q := `"`
		if strings.Contains(s, q) {
			q = `'`
		}
		sb.WriteString(q + s + q)
		return !strings.Contains(s, q)
	}
	switch v := v.(type) {
	case nil:
		sb.WriteString("null")
	case bool:
		sb.WriteString(strconv.FormatBool(v))
	case float64:
		sb.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	case string:
		return quote(v)
	case []any:
		if !top {
			sb.WriteString("[")
		}
		for i, item := range v {
			switch {
			case top:
				sb.WriteString("- ")
			case i > 0:
				sb.WriteString(", ")
			}
			if !emitYAML(sb, item, false) {
				return false
			}
			if top {
				sb.WriteString("\n")
			}
		}
		if !top {
			sb.WriteString("]")
		}
	case map[string]any:
		if !top {
			sb.WriteString("{")
		}
		i := 0
		for key, val := range v {
			if !top && i > 0 {
				sb.WriteString(", ")
			}
			i++
			if !quote(key) {
				return false
			}
			sb.WriteString(": ")
			if !emitYAML(sb, val, false) {
				return false
			}
			if top {
				sb.WriteString("\n")
			}
		}
		if !top {
			sb.WriteString("}")
		}
	}
	return true
}

// sameTree is reflect.DeepEqual with NaN equal to itself ("nan" is a
// number to strconv, hence to the reader).
func sameTree(a, b any) bool {
	switch a := a.(type) {
	case []any:
		b, ok := b.([]any)
		if !ok || len(a) != len(b) {
			return false
		}
		for i := range a {
			if !sameTree(a[i], b[i]) {
				return false
			}
		}
		return true
	case map[string]any:
		b, ok := b.(map[string]any)
		if !ok || len(a) != len(b) {
			return false
		}
		for k, av := range a {
			if bv, ok := b[k]; !ok || !sameTree(av, bv) {
				return false
			}
		}
		return true
	case float64:
		b, ok := b.(float64)
		return ok && (a == b || math.IsNaN(a) && math.IsNaN(b))
	default:
		return a == b
	}
}

// FuzzParseYAML: the scenario reader never panics, and a document it
// accepts means the same tree when its scalars are written back out
// plainly and read again.
func FuzzParseYAML(f *testing.F) {
	for _, s := range []string{
		"name: census  # trailing comment\ncount: 42\nflag: true\nnothing: null\nquoted: \"a: b # not a comment\"\n",
		"config:\n  nested:\n    deep: -3\n  list: [1, 2.5, three]\n  flow: {a: 1, b: ok}\n",
		"items:\n  - plain\n  - table2: {quantity: valid_packets, equals: 16384}\n  - name: multi\n    extra: 7\n",
		"- a\n- \n- - b\n  - c\n-\n  k: v\n",
		"'it''s': [\"x, y\", 'a]b', {k:v}]\n",
		"a: [1, [2, {b: [3]}]]\nb: {}\nc: []\nd: ~\ne: ''\n",
		"a: nan\nb: -inf\nc: 0x1p-2\nd: 1e400\n",
		"a:\n\tb: 1\n", "a: [1, 2\n", "a: {b: 1\n", "a: 'open\n", "a: 1\na: 2\n", "a: [1,, 2]\n", "a:b\n", ": 1\n",
		"- a: 1\n   b: 2\n  c: 3\n", "a: 1\n  b: 2\n", "  a: 1\nb: 2\n", "-\n-\n", "\"k\" : v\r\n",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		tree, err := parseYAML(src)
		if err != nil {
			return
		}
		var sb strings.Builder
		if !emitYAML(&sb, tree, true) {
			return
		}
		again, err := parseYAML([]byte(sb.String()))
		if err != nil {
			t.Fatalf("parseYAML(%q) = %#v, written back as %q it fails: %v", src, tree, sb.String(), err)
		}
		if !sameTree(tree, again) {
			t.Fatalf("parseYAML(%q) = %#v, written back as %q it reads %#v", src, tree, sb.String(), again)
		}
	})
}

// FuzzLoad: the loader's parse → decode path never panics on arbitrary
// bytes (one file, rewritten per input: a fuzz worker runs its inputs
// in turn), refuses with one of its two sentinels, and a scenario it
// accepts carries a Config that passes Validate.
func FuzzLoad(f *testing.F) {
	paths, err := filepath.Glob("../../scenarios/*.yaml")
	if err != nil || len(paths) == 0 {
		f.Fatalf("no scenarios: %v", err)
	}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(src)
	}
	for _, tc := range failureModes {
		f.Add([]byte(tc.yaml))
	}
	path := filepath.Join(f.TempDir(), "fuzz.yaml")
	f.Fuzz(func(t *testing.T, src []byte) {
		if err := os.WriteFile(path, src, 0o644); err != nil {
			t.Fatal(err)
		}
		sc, err := Load(path)
		if err != nil {
			if !errors.Is(err, ErrSchema) && !errors.Is(err, ErrParse) {
				t.Fatalf("Load(%q): %v is neither ErrSchema nor ErrParse", src, err)
			}
			return
		}
		if err := sc.Config.Validate(); err != nil {
			t.Fatalf("Load(%q) accepted a config Validate refuses: %v", src, err)
		}
	})
}
