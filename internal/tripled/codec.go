package tripled

// codec.go is the one place a cell becomes bytes and back. A mutation
// is one line wherever it travels — "PUT\trow\tcol\t<n|s>\t<value>" or
// "DEL\trow\tcol", the request a client sends, each BATCH body line,
// each WAL record line and each line of the WriteLog snapshot — and
// appendPut / appendDel write every such line; (*mutations).parse
// reads them all back. Every cell line, GET and CELLS responses
// included, ends in the same "<n|s>\t<value>" tail, so they all render
// through appendValue and parse through parseValue (parseValueBytes).
//
// Both readers of cell lines in bulk — (*mutations).parse on the
// server, cellDecoder on the client — parse the scanner's bytes in
// place and make no string per cell: a number is parsed from its
// digits, a column name is looked up in a small intern table, and the
// rest (row keys, string values, columns past the intern table) is
// copied into one buffer (cellText) that becomes one string when the
// run of lines it belongs to ends — a row on the server, so that a
// stored value pins its own row's text and nothing more, a page on the
// client.

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
// well-formed number never becomes a heap string, and a string value
// is left to the caller, who cuts it from its own text — str reports
// that v is one, with raw its text. Every error goes through
// parseValue, so it reads the same.
func parseValueBytes(marker, raw []byte) (v assoc.Value, str bool, err error) {
	if len(marker) == 1 {
		switch marker[0] {
		case 'n':
			if f, err := strconv.ParseFloat(string(raw), 64); err == nil {
				return assoc.Num(f), false, nil
			}
		case 's':
			return assoc.Value{}, true, nil
		}
	}
	v, err = parseValue(string(marker), string(raw))
	return v, false, err
}

// cellText is what a bulk reader of cell lines holds between lines:
// the strings of the cells it has parsed but not yet made — row keys,
// string values, and column names past its intern table — copied end
// to end into one buffer, each with the cell field it fills. cut makes
// the buffer one string and fills every field from it, so those cells
// cost one allocation however many there are. A row key repeated on
// consecutive lines is copied once.
type cellText struct {
	text   []byte
	spans  []textSpan
	rowLo  int // the previous line's row key is text[rowLo:rowHi]
	rowHi  int
	hasRow bool
	cols   map[string]string // interned column names, up to maxInterned
}

// textSpan is one pending string: text[lo:hi], bound for field of cell
// (or key) i.
type textSpan struct {
	i, lo, hi int
	field     cellField
}

// cellField names the field a textSpan fills.
type cellField uint8

const (
	rowField cellField = iota
	colField
	strField
	keyRowField // of a CellKey
	keyColField
)

// maxInterned caps the intern table, so a wide table does not pay a
// map insert per cell: a column past it is pending text like a row key.
const maxInterned = 64

// maxKeptText is the most buffer a cellText keeps for the next cut.
const maxKeptText = 1 << 20

// sameRow reports whether row is the previous line's row key.
func (t *cellText) sameRow(row []byte) bool {
	return t.hasRow && bytes.Equal(t.text[t.rowLo:t.rowHi], row)
}

// row records row as field of cell i, copying it only when it is not
// the previous line's row key.
func (t *cellText) row(i int, field cellField, row []byte) {
	if !t.sameRow(row) {
		t.rowLo, t.text = len(t.text), append(t.text, row...)
		t.rowHi, t.hasRow = len(t.text), true
	}
	t.spans = append(t.spans, textSpan{i: i, lo: t.rowLo, hi: t.rowHi, field: field})
}

// col returns the canonical copy of col, interning it while the table
// has room; past that it records col as field of cell i and returns "".
func (t *cellText) col(i int, field cellField, col []byte) string {
	if name, ok := t.cols[string(col)]; ok {
		return name
	}
	if len(t.cols) >= maxInterned {
		t.add(i, field, col)
		return ""
	}
	if t.cols == nil {
		t.cols = make(map[string]string)
	}
	name := colName(string(col))
	t.cols[name] = name
	return name
}

// add records b as field of cell i.
func (t *cellText) add(i int, field cellField, b []byte) {
	lo := len(t.text)
	t.text = append(t.text, b...)
	t.spans = append(t.spans, textSpan{i: i, lo: lo, hi: len(t.text), field: field})
}

// cut makes the pending text one string and fills every pending field
// of cells and keys from it, then forgets it.
func (t *cellText) cut(cells []Cell, keys []CellKey) {
	s := string(t.text)
	for _, sp := range t.spans {
		str := s[sp.lo:sp.hi]
		switch sp.field {
		case rowField:
			cells[sp.i].Row = str
		case colField:
			cells[sp.i].Col = str
		case strField:
			cells[sp.i].Val.Str = str
		case keyRowField:
			keys[sp.i].Row = str
		default:
			keys[sp.i].Col = str
		}
	}
	t.reset()
}

// reset forgets the pending text.
func (t *cellText) reset() {
	if cap(t.text) > maxKeptText {
		t.text, t.spans = nil, nil
	}
	t.text, t.spans, t.hasRow = t.text[:0], t.spans[:0], false
}

// cellDecoder parses the "row\tcol\t<n|s>\t<value>" lines of a CELLS
// page straight out of the scanner's buffer, with no string per cell:
// numbers are parsed where they lie, column names interned, and the
// page's row keys and string values become one string when the page
// ends (cut) — so a fetched table's strings pin the pages they came
// in. A KEYS page's row keys are cut the same way. A Client keeps one,
// so its buffer and intern table serve page after page.
type cellDecoder struct{ cellText }

// decode appends line's cell to page, its strings pending until the
// page is cut; line is only read, never retained.
func (d *cellDecoder) decode(page []Cell, line []byte) ([]Cell, error) {
	var f [3][]byte // row, col, marker; the value is what remains, tabs and all
	rest := line
	for i := range f {
		t := bytes.IndexByte(rest, '\t')
		if t < 0 {
			return page, fmt.Errorf("tripled: malformed cells line %q", line)
		}
		f[i], rest = rest[:t], rest[t+1:]
	}
	v, str, err := parseValueBytes(f[2], rest)
	if err != nil {
		return page, err
	}
	i := len(page)
	d.row(i, rowField, f[0])
	col := d.col(i, colField, f[1])
	if str {
		d.add(i, strField, rest)
	}
	return append(page, Cell{Col: col, Val: v}), nil
}
