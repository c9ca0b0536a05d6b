package scenario

import (
	"errors"
	"reflect"
	"strings"
	"testing"
)

func TestParseYAMLDocument(t *testing.T) {
	src := `
# leading comment
name: census  # trailing comment
count: 42
ratio: 0.5
flag: true
nothing: null
quoted: "a: b # not a comment"
config:
  nested:
    deep: -3
  list: [1, 2.5, three]
  flow: {a: 1, b: ok}
items:
  - plain
  - table2: {quantity: valid_packets, equals: 16384}
  - name: multi
    extra: 7
  - {flow: item, n: 1}
  - [1, two]
`
	got, err := parseYAML([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]any{
		"name":    "census",
		"count":   42.0,
		"ratio":   0.5,
		"flag":    true,
		"nothing": nil,
		"quoted":  "a: b # not a comment",
		"config": map[string]any{
			"nested": map[string]any{"deep": -3.0},
			"list":   []any{1.0, 2.5, "three"},
			"flow":   map[string]any{"a": 1.0, "b": "ok"},
		},
		"items": []any{
			"plain",
			map[string]any{"table2": map[string]any{
				"quantity": "valid_packets", "equals": 16384.0,
			}},
			map[string]any{"name": "multi", "extra": 7.0},
			map[string]any{"flow": "item", "n": 1.0},
			[]any{1.0, "two"},
		},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parsed\n%#v\nwant\n%#v", got, want)
	}
}

func TestParseYAMLErrors(t *testing.T) {
	cases := []struct {
		name, src, wantLine string
	}{
		{"tab indent", "a:\n\tb: 1", "line 2"},
		{"missing colon", "a: 1\njunk", "line 2"},
		{"missing space after colon", "a:1", "line 1"},
		{"unterminated quote", `a: "open`, "line 1"},
		{"unterminated flow list", "a: [1, 2", "line 1"},
		{"unbalanced flow map", "a: {b: [1}", "line 1"},
		{"trailing comma", "a: [1, 2, ]", "line 1"},
		{"duplicate key", "a: 1\na: 2", "line 2"},
		{"sequence in mapping", "a: 1\n- b", "line 2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseYAML([]byte(tc.src))
			if err == nil {
				t.Fatalf("accepted %q", tc.src)
			}
			if !errors.Is(err, ErrParse) {
				t.Errorf("error %v is not ErrParse", err)
			}
			if !strings.Contains(err.Error(), tc.wantLine) {
				t.Errorf("error %q does not carry %q", err, tc.wantLine)
			}
		})
	}
}
