package report

// render.go is the one renderer: cmd/experiments, the daemon and the
// benchmark all write through it. Each artifact lowers to a Table — a
// comment preamble, a column header, and rows of already-formatted
// cells — and both encoders consume that Table, so TSV and JSON can
// never drift apart. The golden files in testdata/ pin the cell
// formats byte for byte.

import (
	"encoding/json"
	"fmt"
	"io"
	"regexp"
	"strings"
)

// fig5FitOrder is the canonical model order of Figure 5's comparison.
var fig5FitOrder = []string{"modified-cauchy", "cauchy", "gaussian"}

// Table is the render model every artifact lowers to. Comments carry
// preamble lines without the TSV "# " prefix; Rows hold cells already
// formatted with the artifact's verbs.
type Table struct {
	Artifact ArtifactID
	Comments []string
	Columns  []string
	Rows     [][]string
}

// Table lowers one artifact to its render model, computing it (and its
// dependencies) through the graph on first use.
func (g *Graph) Table(id ArtifactID) (*Table, error) {
	switch id {
	case Table1:
		return tableTableI(g), nil
	case Table2:
		return tableTableII(g), nil
	case Fig3:
		return tableFig3(g), nil
	case Fig4:
		return tableFig4(g)
	case Fig5:
		return tableFig5(g)
	case Fig6:
		return tableFig6(g), nil
	case Fig7Fig8:
		return tableFig7And8(g), nil
	default:
		return nil, fmt.Errorf("report: unknown artifact %q", id)
	}
}

// WriteTSV renders one artifact as tab-separated values, byte-identical
// to the golden files in testdata/.
func WriteTSV(w io.Writer, g *Graph, id ArtifactID) error {
	t, err := g.Table(id)
	if err != nil {
		return err
	}
	return t.WriteTSV(w)
}

// WriteTSV encodes the lowered table as TSV.
func (t *Table) WriteTSV(w io.Writer) error {
	for _, c := range t.Comments {
		if _, err := fmt.Fprintf(w, "# %s\n", c); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w, strings.Join(t.Columns, "\t")); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, strings.Join(row, "\t")); err != nil {
			return err
		}
	}
	return nil
}

// jsonNumber matches cells that are valid JSON number literals, so the
// JSON encoding carries them as numbers rather than strings. Formatted
// floats ("0.1234", "1e+06", "-3") all match; labels, durations, and
// non-finite fit residuals ("+Inf") fall back to JSON strings.
var jsonNumber = regexp.MustCompile(`^-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?$`)

// jsonArtifact is the WriteJSON document schema: the same comment
// preamble, columns, and row cells as the TSV, with numeric cells as
// JSON numbers.
type jsonArtifact struct {
	Artifact ArtifactID          `json:"artifact"`
	Comments []string            `json:"comments,omitempty"`
	Columns  []string            `json:"columns"`
	Rows     [][]json.RawMessage `json:"rows"`
}

// WriteJSON renders one artifact as a JSON document holding exactly the
// values of the TSV encoding (TestJSONMatchesTSV pins the equality).
func WriteJSON(w io.Writer, g *Graph, id ArtifactID) error {
	t, err := g.Table(id)
	if err != nil {
		return err
	}
	return t.WriteJSON(w)
}

// WriteJSON encodes the lowered table as a JSON document.
func (t *Table) WriteJSON(w io.Writer) error {
	doc := jsonArtifact{
		Artifact: t.Artifact,
		Comments: t.Comments,
		Columns:  t.Columns,
		Rows:     make([][]json.RawMessage, len(t.Rows)),
	}
	for i, row := range t.Rows {
		cells := make([]json.RawMessage, len(row))
		for j, cell := range row {
			if jsonNumber.MatchString(cell) {
				cells[j] = json.RawMessage(cell)
			} else {
				quoted, err := json.Marshal(cell)
				if err != nil {
					return err
				}
				cells[j] = quoted
			}
		}
		doc.Rows[i] = cells
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	_, err = w.Write(buf)
	return err
}

func tableTableI(g *Graph) *Table {
	t := &Table{
		Artifact: Table1,
		Columns:  []string{"gn_start", "gn_days", "gn_sources", "caida_start", "caida_duration", "caida_packets", "caida_sources"},
	}
	for _, r := range g.TableI() {
		t.Rows = append(t.Rows, []string{
			r.GNStart,
			fmt.Sprintf("%d", r.GNDays),
			fmt.Sprintf("%d", r.GNSources),
			r.CAIDAStart,
			r.CAIDADuration,
			fmt.Sprintf("%d", r.CAIDAPackets),
			fmt.Sprintf("%d", r.CAIDASources),
		})
	}
	return t
}

func tableTableII(g *Graph) *Table {
	t := &Table{
		Artifact: Table2,
		Columns:  []string{"snapshot", "quantity", "value"},
	}
	quants := g.TableII()
	labels := g.snapshotLabels()
	for i, q := range quants {
		if i >= len(labels) {
			break
		}
		for _, row := range q.Rows() {
			t.Rows = append(t.Rows, []string{labels[i], row[0], row[1]})
		}
	}
	return t
}

// snapshotLabels copies the snapshot labels under the input lock, so
// render code never reads g.in concurrently with an Update.
func (g *Graph) snapshotLabels() []string {
	g.inMu.RLock()
	defer g.inMu.RUnlock()
	out := make([]string, len(g.in.Study.Snapshots))
	for i, s := range g.in.Study.Snapshots {
		out[i] = s.Label
	}
	return out
}

func tableFig3(g *Graph) *Table {
	t := &Table{
		Artifact: Fig3,
		Columns:  []string{"snapshot", "d", "prob", "zm_alpha", "zm_delta"},
	}
	for _, s := range g.Fig3() {
		probs := s.Binned.Prob()
		for i, p := range probs {
			if p == 0 {
				continue
			}
			t.Rows = append(t.Rows, []string{
				s.Label,
				fmt.Sprintf("%g", s.Binned.Centers[i]),
				fmt.Sprintf("%.6g", p),
				fmt.Sprintf("%.3f", s.Alpha),
				fmt.Sprintf("%.3f", s.Delta),
			})
		}
	}
	return t
}

func tableFig4(g *Graph) (*Table, error) {
	series, err := g.Fig4()
	if err != nil {
		return nil, err
	}
	t := &Table{
		Artifact: Fig4,
		Columns:  []string{"snapshot", "d", "sources", "matched", "fraction", "ci_lo", "ci_hi", "model_log2d_over_log2sqrtNV"},
	}
	for _, s := range series {
		for i, p := range s.Points {
			t.Rows = append(t.Rows, []string{
				s.Label,
				fmt.Sprintf("%g", p.D),
				fmt.Sprintf("%d", p.Sources),
				fmt.Sprintf("%d", p.Matched),
				fmt.Sprintf("%.4f", p.Fraction),
				fmt.Sprintf("%.4f", p.CILo),
				fmt.Sprintf("%.4f", p.CIHi),
				fmt.Sprintf("%.4f", s.Model[i]),
			})
		}
	}
	return t, nil
}

func tableFig5(g *Graph) (*Table, error) {
	series, fits, err := g.Fig5()
	if err != nil {
		return nil, err
	}
	t := &Table{
		Artifact: Fig5,
		Comments: []string{fmt.Sprintf("snapshot %s, band 2^%d (%d sources)",
			series.Snapshot, series.Band, series.Sources)},
		Columns: []string{"month", "dt", "fraction", "mod_cauchy", "cauchy", "gaussian"},
	}
	for _, name := range fig5FitOrder {
		fit := fits[name]
		t.Comments = append(t.Comments,
			fmt.Sprintf("fit %s: model=%+v residual=%.4f", name, fit.Model, fit.Residual))
	}
	mc := fits["modified-cauchy"].Curve(series.Dt)
	ca := fits["cauchy"].Curve(series.Dt)
	ga := fits["gaussian"].Curve(series.Dt)
	for i := range series.Dt {
		t.Rows = append(t.Rows, []string{
			series.Labels[i],
			fmt.Sprintf("%.2f", series.Dt[i]),
			fmt.Sprintf("%.4f", series.Fraction[i]),
			fmt.Sprintf("%.4f", mc[i]),
			fmt.Sprintf("%.4f", ca[i]),
			fmt.Sprintf("%.4f", ga[i]),
		})
	}
	return t, nil
}

func tableFig6(g *Graph) *Table {
	all, fits := g.Fig6()
	t := &Table{
		Artifact: Fig6,
		Columns:  []string{"snapshot", "band", "sources", "month", "dt", "fraction", "fit"},
	}
	for k, s := range all {
		curve := fits[k].Curve(s.Dt)
		for i := range s.Dt {
			t.Rows = append(t.Rows, []string{
				s.Snapshot,
				fmt.Sprintf("%d", s.Band),
				fmt.Sprintf("%d", s.Sources),
				s.Labels[i],
				fmt.Sprintf("%.2f", s.Dt[i]),
				fmt.Sprintf("%.4f", s.Fraction[i]),
				fmt.Sprintf("%.4f", curve[i]),
			})
		}
	}
	return t
}

func tableFig7And8(g *Graph) *Table {
	t := &Table{
		Artifact: Fig7Fig8,
		Columns:  []string{"snapshot", "d", "sources", "alpha", "beta", "one_month_drop", "residual"},
	}
	for _, sweep := range g.Fig7And8() {
		for _, f := range sweep {
			t.Rows = append(t.Rows, []string{
				f.Snapshot,
				fmt.Sprintf("%g", f.D),
				fmt.Sprintf("%d", f.Sources),
				fmt.Sprintf("%.3f", f.Alpha),
				fmt.Sprintf("%.3f", f.Beta),
				fmt.Sprintf("%.3f", f.Drop),
				fmt.Sprintf("%.4f", f.Residual),
			})
		}
	}
	return t
}
