package tripled

// codec.go is the one place a cell becomes bytes and back. A mutation
// is one line wherever it travels — "PUT\trow\tcol\t<n|s>\t<value>" or
// "DEL\trow\tcol", the request a client sends, each BATCH body line,
// each WAL record line and each line of the WriteLog snapshot — and
// appendPut / appendDel write every such line; (*mutations).parse
// reads them all back. Every cell line, GET and CELLS responses
// included, ends in the same "<n|s>\t<value>" tail, so they all render
// through appendValue and parse through parseValue, and none allocates
// per cell to do it.

import (
	"bytes"
	"fmt"
	"strconv"

	"repro/internal/assoc"
)

// appendValue renders the "<n|s>\t<value>" tail of a cell line.
func appendValue(b []byte, v assoc.Value) []byte {
	if v.Numeric {
		b = append(b, 'n', '\t')
		return strconv.AppendFloat(b, v.Num, 'g', -1, 64)
	}
	b = append(b, 's', '\t')
	return append(b, v.Str...)
}

// appendCell renders "row\tcol\t<n|s>\t<value>", the body every
// full-cell line shares after its verb.
func appendCell(b []byte, row, col string, v assoc.Value) []byte {
	b = append(b, row...)
	b = append(b, '\t')
	b = append(b, col...)
	b = append(b, '\t')
	return appendValue(b, v)
}

// appendPut renders the mutation line "PUT\trow\tcol\t<n|s>\t<value>",
// without its newline.
func appendPut(b []byte, row, col string, v assoc.Value) []byte {
	return appendCell(append(b, "PUT\t"...), row, col, v)
}

// appendDel renders the mutation line "DEL\trow\tcol", without its
// newline.
func appendDel(b []byte, row, col string) []byte {
	b = append(b, "DEL\t"...)
	b = append(b, row...)
	b = append(b, '\t')
	return append(b, col...)
}

func parseValue(marker, raw string) (assoc.Value, error) {
	switch marker {
	case "n":
		f, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			return assoc.Value{}, fmt.Errorf("bad number %q", raw)
		}
		return assoc.Num(f), nil
	case "s":
		return assoc.Str(raw), nil
	default:
		return assoc.Value{}, fmt.Errorf("unknown value marker %q", marker)
	}
}

// parseValueBytes is parseValue over a scanner's line buffer: a
// well-formed number never becomes a heap string, and everything else
// (string values, which need one anyway, and every error) goes through
// parseValue.
func parseValueBytes(marker, raw []byte) (assoc.Value, error) {
	if len(marker) == 1 && marker[0] == 'n' {
		if f, err := strconv.ParseFloat(string(raw), 64); err == nil {
			return assoc.Num(f), nil
		}
	}
	return parseValue(string(marker), string(raw))
}

// cellDecoder parses the "row\tcol\t<n|s>\t<value>" lines of one CELLS
// block straight out of the scanner's buffer. A table page is row-major
// with a handful of column names, so a row's cells share one row string
// and column names are interned — up to maxInterned of them, so a wide
// table does not pay a map insert per cell on top of its strings.
type cellDecoder struct {
	row  string // the previous line's row key
	cols map[string]string
}

const maxInterned = 64

// decode parses one line; line is only read, never retained.
func (d *cellDecoder) decode(line []byte) (Cell, error) {
	var f [3][]byte // row, col, marker; the value is what remains, tabs and all
	rest := line
	for i := range f {
		t := bytes.IndexByte(rest, '\t')
		if t < 0 {
			return Cell{}, fmt.Errorf("tripled: malformed cells line %q", line)
		}
		f[i], rest = rest[:t], rest[t+1:]
	}
	v, err := parseValueBytes(f[2], rest)
	if err != nil {
		return Cell{}, err
	}
	if d.row != string(f[0]) {
		d.row = string(f[0])
	}
	col, ok := d.cols[string(f[1])]
	if !ok {
		col = string(f[1])
		if d.cols == nil {
			d.cols = make(map[string]string)
		}
		if len(d.cols) < maxInterned {
			d.cols[col] = col
		}
	}
	return Cell{Row: d.row, Col: col, Val: v}, nil
}
