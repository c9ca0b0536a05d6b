package scenario

// yaml.go is the scenario schema's YAML reader: a dependency-free
// decoder for the strict subset the schema needs — block mappings
// nested by indentation, block sequences ("- item"), inline flow lists
// ("[a, b]") and maps ("{k: v}"), quoted and bare scalars, comments.
// The container ships no YAML module and the hard constraint is to add
// none, so the subset is implemented here; scenario files that stay
// within it are ordinary YAML any other tool can read.
//
// Decoded values are map[string]any, []any, string, float64, and bool.
// Parse errors carry the 1-based line number and are wrapped in
// ErrParse so the runner can map "malformed YAML" to its own exit code.

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// ErrParse wraps malformed-YAML errors (distinct CLI exit code from
// schema errors: the file isn't even well-formed).
var ErrParse = errors.New("scenario: yaml parse error")

// ErrSchema wraps well-formed files that violate the scenario schema:
// unknown keys, unknown assertion kinds, wrong value types.
var ErrSchema = errors.New("scenario: schema error")

type yamlLine struct {
	indent int
	text   string // content with indentation stripped
	num    int    // 1-based line number
}

func parseErrf(line int, format string, args ...any) error {
	return fmt.Errorf("%w: line %d: %s", ErrParse, line, fmt.Sprintf(format, args...))
}

// parseYAML decodes src into maps/lists/scalars.
func parseYAML(src []byte) (any, error) {
	var lines []yamlLine
	for i, raw := range strings.Split(string(src), "\n") {
		// Strip comments outside quotes, then trailing space.
		text := stripComment(raw)
		trimmed := strings.TrimRight(text, " \t")
		if strings.TrimSpace(trimmed) == "" {
			continue
		}
		indent := 0
		for indent < len(trimmed) && trimmed[indent] == ' ' {
			indent++
		}
		if strings.HasPrefix(trimmed[indent:], "\t") {
			return nil, parseErrf(i+1, "tab indentation is not supported")
		}
		lines = append(lines, yamlLine{indent: indent, text: trimmed[indent:], num: i + 1})
	}
	if len(lines) == 0 {
		return map[string]any{}, nil
	}
	v, rest, err := parseBlock(lines, lines[0].indent)
	if err != nil {
		return nil, err
	}
	if len(rest) > 0 {
		return nil, parseErrf(rest[0].num, "unexpected de-indented content %q", rest[0].text)
	}
	return v, nil
}

// stripComment removes a trailing "#" comment, respecting quotes.
func stripComment(s string) string {
	inS, inD := false, false
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\'':
			if !inD {
				inS = !inS
			}
		case '"':
			if !inS {
				inD = !inD
			}
		case '#':
			if !inS && !inD && (i == 0 || s[i-1] == ' ' || s[i-1] == '\t') {
				return s[:i]
			}
		}
	}
	return s
}

// parseBlock parses the longest run of lines at exactly indent
// (consuming deeper lines as nested content) and returns the remainder.
func parseBlock(lines []yamlLine, indent int) (any, []yamlLine, error) {
	if len(lines) == 0 {
		return nil, nil, parseErrf(0, "empty block")
	}
	if lines[0].indent != indent {
		return nil, nil, parseErrf(lines[0].num, "bad indentation (got %d, want %d)", lines[0].indent, indent)
	}
	if strings.HasPrefix(lines[0].text, "- ") || lines[0].text == "-" {
		return parseSequence(lines, indent)
	}
	return parseMapping(lines, indent)
}

func parseMapping(lines []yamlLine, indent int) (any, []yamlLine, error) {
	out := map[string]any{}
	for len(lines) > 0 {
		ln := lines[0]
		if ln.indent < indent {
			break
		}
		if ln.indent > indent {
			return nil, nil, parseErrf(ln.num, "unexpected indentation")
		}
		if strings.HasPrefix(ln.text, "- ") || ln.text == "-" {
			return nil, nil, parseErrf(ln.num, "sequence item inside a mapping")
		}
		key, rest, err := splitKey(ln)
		if err != nil {
			return nil, nil, err
		}
		if _, dup := out[key]; dup {
			return nil, nil, parseErrf(ln.num, "duplicate key %q", key)
		}
		lines = lines[1:]
		if rest != "" {
			v, err := parseScalarOrFlow(rest, ln.num)
			if err != nil {
				return nil, nil, err
			}
			out[key] = v
			continue
		}
		// Block value: nested lines deeper than this key, or empty.
		if len(lines) == 0 || lines[0].indent <= indent {
			out[key] = nil
			continue
		}
		v, remain, err := parseBlock(lines, lines[0].indent)
		if err != nil {
			return nil, nil, err
		}
		out[key] = v
		lines = remain
	}
	return out, lines, nil
}

func parseSequence(lines []yamlLine, indent int) (any, []yamlLine, error) {
	out := []any{}
	for len(lines) > 0 {
		ln := lines[0]
		if ln.indent < indent {
			break
		}
		if ln.indent > indent {
			return nil, nil, parseErrf(ln.num, "unexpected indentation")
		}
		if !strings.HasPrefix(ln.text, "- ") && ln.text != "-" {
			break
		}
		body := strings.TrimPrefix(strings.TrimPrefix(ln.text, "-"), " ")
		lines = lines[1:]
		if body == "" {
			// "-" alone: nested block item.
			if len(lines) == 0 || lines[0].indent <= indent {
				out = append(out, nil)
				continue
			}
			v, remain, err := parseBlock(lines, lines[0].indent)
			if err != nil {
				return nil, nil, err
			}
			out = append(out, v)
			lines = remain
			continue
		}
		flow := body[0] == '[' || body[0] == '{' // "- {k: v}" is a flow item, not a map item keyed "{k"
		if key, rest, err := splitKey(yamlLine{text: body, num: ln.num}); err == nil && !flow {
			// "- key: ..." starts an inline map item; continuation keys
			// sit deeper than the dash.
			item := map[string]any{}
			if rest != "" {
				v, err := parseScalarOrFlow(rest, ln.num)
				if err != nil {
					return nil, nil, err
				}
				item[key] = v
			} else if len(lines) > 0 && lines[0].indent > indent+2 {
				v, remain, err := parseBlock(lines, lines[0].indent)
				if err != nil {
					return nil, nil, err
				}
				item[key] = v
				lines = remain
			} else {
				item[key] = nil
			}
			for len(lines) > 0 && lines[0].indent > indent {
				more, remain, err := parseMapping(lines, lines[0].indent)
				if err != nil {
					return nil, nil, err
				}
				for k, v := range more.(map[string]any) {
					if _, dup := item[k]; dup {
						return nil, nil, parseErrf(lines[0].num, "duplicate key %q", k)
					}
					item[k] = v
				}
				lines = remain
			}
			out = append(out, item)
			continue
		}
		v, err := parseScalarOrFlow(body, ln.num)
		if err != nil {
			return nil, nil, err
		}
		out = append(out, v)
	}
	return out, lines, nil
}

// splitKey splits "key: value" / "key:" respecting quoted keys. It
// errors when the text is not a mapping entry.
func splitKey(ln yamlLine) (key, rest string, err error) {
	text := ln.text
	if text == "" {
		return "", "", parseErrf(ln.num, "empty mapping entry")
	}
	if text[0] == '\'' || text[0] == '"' {
		q := text[0]
		end := strings.IndexByte(text[1:], q)
		if end < 0 {
			return "", "", parseErrf(ln.num, "unterminated quoted key")
		}
		key = text[1 : 1+end]
		tail := strings.TrimLeft(text[2+end:], " ")
		if !strings.HasPrefix(tail, ":") {
			return "", "", parseErrf(ln.num, "missing ':' after key %q", key)
		}
		return key, strings.TrimLeft(tail[1:], " "), nil
	}
	i := strings.IndexByte(text, ':')
	if i < 0 {
		return "", "", parseErrf(ln.num, "missing ':' in %q", text)
	}
	if i+1 < len(text) && text[i+1] != ' ' {
		return "", "", parseErrf(ln.num, "missing space after ':' in %q", text)
	}
	key = strings.TrimSpace(text[:i])
	if key == "" {
		return "", "", parseErrf(ln.num, "empty key in %q", text)
	}
	return key, strings.TrimLeft(text[i+1:], " "), nil
}

// parseScalarOrFlow parses an inline value: a flow list, a flow map, or
// a scalar.
func parseScalarOrFlow(s string, line int) (any, error) {
	s = strings.TrimSpace(s)
	switch {
	case strings.HasPrefix(s, "["):
		if !strings.HasSuffix(s, "]") {
			return nil, parseErrf(line, "unterminated flow list %q", s)
		}
		items, err := splitFlow(s[1:len(s)-1], line)
		if err != nil {
			return nil, err
		}
		out := make([]any, 0, len(items))
		for _, it := range items {
			v, err := parseScalarOrFlow(it, line)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
		return out, nil
	case strings.HasPrefix(s, "{"):
		if !strings.HasSuffix(s, "}") {
			return nil, parseErrf(line, "unterminated flow map %q", s)
		}
		items, err := splitFlow(s[1:len(s)-1], line)
		if err != nil {
			return nil, err
		}
		out := map[string]any{}
		for _, it := range items {
			key, rest, err := splitKey(yamlLine{text: strings.TrimSpace(it), num: line})
			if err != nil {
				// Flow maps allow "k:v" without the space.
				if i := strings.IndexByte(it, ':'); i > 0 {
					key, rest = strings.TrimSpace(it[:i]), strings.TrimSpace(it[i+1:])
				} else {
					return nil, err
				}
			}
			v, err := parseScalarOrFlow(rest, line)
			if err != nil {
				return nil, err
			}
			if _, dup := out[key]; dup {
				return nil, parseErrf(line, "duplicate key %q", key)
			}
			out[key] = v
		}
		return out, nil
	}
	return parseScalar(s, line)
}

// splitFlow splits a flow body on top-level commas, respecting quotes
// and nested brackets.
func splitFlow(s string, line int) ([]string, error) {
	var out []string
	depth, start := 0, 0
	inS, inD := false, false
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '\'' && !inD:
			inS = !inS
		case c == '"' && !inS:
			inD = !inD
		case inS || inD:
		case c == '[' || c == '{':
			depth++
		case c == ']' || c == '}':
			depth--
			if depth < 0 {
				return nil, parseErrf(line, "unbalanced brackets in %q", s)
			}
		case c == ',' && depth == 0:
			out = append(out, strings.TrimSpace(s[start:i]))
			start = i + 1
		}
	}
	if inS || inD || depth != 0 {
		return nil, parseErrf(line, "unbalanced quotes or brackets in %q", s)
	}
	if last := strings.TrimSpace(s[start:]); last != "" {
		out = append(out, last)
	} else if len(out) > 0 {
		return nil, parseErrf(line, "trailing comma in %q", s)
	}
	return out, nil
}

func parseScalar(s string, line int) (any, error) {
	if s == "" || s == "null" || s == "~" {
		return nil, nil
	}
	if len(s) >= 2 && (s[0] == '\'' || s[0] == '"') {
		if s[len(s)-1] != s[0] {
			return nil, parseErrf(line, "unterminated quoted scalar %q", s)
		}
		return s[1 : len(s)-1], nil
	}
	switch s {
	case "true":
		return true, nil
	case "false":
		return false, nil
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return f, nil
	}
	return s, nil
}
