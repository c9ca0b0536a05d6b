package telescope

import (
	"context"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/assoc"
	"repro/internal/ipaddr"
	"repro/internal/radiation"
	"repro/internal/stats"
)

// sourceWindow captures one window wide enough to make its source
// table's per-row costs show.
func sourceWindow(tb testing.TB) (*Telescope, *Window) {
	tb.Helper()
	cfg := radiation.DefaultConfig()
	cfg.NumSources = 20000
	cfg.ZM = stats.PaperZM(1 << 14)
	pop, err := radiation.NewPopulation(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tel := New(cfg.Darkspace, "table-key", WithLeafSize(1<<12))
	w, err := tel.CaptureWindowEngine(context.Background(), pop.TelescopeStream(4.5, time.Unix(0, 0)), 1<<16, 1, 0)
	if err != nil {
		tb.Fatal(err)
	}
	if w.Matrix.NRows() < 1000 {
		tb.Fatalf("only %d sources in the window", w.Matrix.NRows())
	}
	return tel, w
}

// TestSourceTableMatchesRowByRow: the slab-built source table is the
// table the same rows make handed to SetRow one at a time, each under a
// key string of its own — byte for byte as TSV.
func TestSourceTableMatchesRowByRow(t *testing.T) {
	tel, w := sourceWindow(t)
	want := assoc.New()
	w.Matrix.RowScan(func(id uint32, n float64, _ int) {
		key := tel.anon.Anonymizer().Deanonymize(ipaddr.Addr(id)).String()
		if want.HasRow(key) {
			t.Fatalf("two sources deanonymize to %s", key)
		}
		if err := want.SetRow(key, []assoc.Cell{{Key: "packets", Val: assoc.Num(n)}}); err != nil {
			t.Fatal(err)
		}
	})
	got := tel.SourceTable(w)
	if got.NNZ() != want.NNZ() || got.NRows() != want.NRows() || !slices.Equal(got.RowKeys(), want.RowKeys()) {
		t.Fatalf("slab table %v, row by row %v", got, want)
	}
	var g, r strings.Builder
	if err := got.WriteTSV(&g); err != nil {
		t.Fatal(err)
	}
	if err := want.WriteTSV(&r); err != nil {
		t.Fatal(err)
	}
	if g.String() != r.String() {
		t.Fatalf("slab table's TSV differs from the row-by-row table's (%d vs %d bytes)", g.Len(), r.Len())
	}
}

// TestSourceTableAllocations is the alloc gate on the slab build: the
// source pairs, the inverse walk, one text arena, one cell slab, one
// header slab and the row map at its final size — nothing per row.
func TestSourceTableAllocations(t *testing.T) {
	tel, w := sourceWindow(t)
	rows := w.Matrix.NRows()
	var sink int
	allocs := testing.AllocsPerRun(3, func() { sink += tel.SourceTable(w).NRows() })
	perRow := allocs / float64(rows)
	t.Logf("%d rows: %.0f allocations, %.4f per row", rows, allocs, perRow)
	if perRow > 0.05 {
		t.Errorf("SourceTable costs %.4f allocations per row, want <= 0.05", perRow)
	}
}

func BenchmarkSourceTable(b *testing.B) {
	tel, w := sourceWindow(b)
	rows := float64(w.Matrix.NRows())
	allocs := testing.AllocsPerRun(1, func() { tel.SourceTable(w) })
	b.ReportAllocs()
	b.ResetTimer()
	for b.Loop() {
		tel.SourceTable(w)
	}
	b.ReportMetric(rows*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
	b.ReportMetric(allocs/rows, "allocs/row")
}
