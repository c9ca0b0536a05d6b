package honeyfarm

// slab_test.go holds the slab-built month table to the table the same
// observations make when handed over a row at a time — the way
// BuildMonth worked before — and to its allocation budget.

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/assoc"
	"repro/internal/radiation"
)

// buildMonthRowByRow is BuildMonth as it was: each observation rendered
// into strings of its own and handed to SetRow, later rows replacing
// earlier ones of the same source.
func buildMonthRowByRow(t *testing.T, h *Honeyfarm, obs []radiation.Observation) *assoc.Assoc {
	t.Helper()
	table := assoc.New()
	for _, o := range obs {
		p := converse(o.Src)
		err := table.SetRow(o.Src.IP.String(), []assoc.Cell{
			{Key: ColClassification, Val: assoc.Str(p.Classification)},
			{Key: ColFirstSeen, Val: assoc.Str(o.FirstSeen.UTC().Format(time.RFC3339))},
			{Key: ColIntent, Val: assoc.Str(p.Intent)},
			{Key: ColLastSeen, Val: assoc.Str(o.LastSeen.UTC().Format(time.RFC3339))},
			{Key: ColPackets, Val: assoc.Num(float64(o.Packets))},
			{Key: ColTags, Val: assoc.Str(strings.Join(p.Tags, ","))},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return table
}

func tsv(t *testing.T, a *assoc.Assoc) string {
	t.Helper()
	var sb strings.Builder
	if err := a.WriteTSV(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func sameTable(t *testing.T, what string, got, want *assoc.Assoc) {
	t.Helper()
	if got.NNZ() != want.NNZ() || got.NRows() != want.NRows() {
		t.Errorf("%s: %d cells in %d rows, want %d in %d", what, got.NNZ(), got.NRows(), want.NNZ(), want.NRows())
	}
	if !slices.Equal(got.RowKeys(), want.RowKeys()) {
		t.Errorf("%s: row keys differ", what)
	}
	if g, w := tsv(t, got), tsv(t, want); g != w {
		t.Errorf("%s: TSV differs from the row-by-row table (%d vs %d bytes)", what, len(g), len(w))
	}
}

// TestBuildMonthMatchesRowByRow is the slab/row differential: the same
// observations make the same table either way, also when a source is
// observed twice (the later row wins and is counted once), and a
// slab-cut row that grows, widens past a block or goes leaves the rows
// cut beside it alone.
func TestBuildMonthMatchesRowByRow(t *testing.T) {
	pop := testPopulation(t, 3000)
	h := New(40, 5)
	start := time.Date(2020, 4, 1, 0, 0, 0, 0, time.UTC)
	obs := pop.HoneyfarmMonth(2, start)
	if len(obs) < 100 {
		t.Fatalf("only %d observations", len(obs))
	}
	sameTable(t, "distinct sources", h.BuildMonth("2020-04", start, obs).Table, buildMonthRowByRow(t, h, obs))

	// A source seen twice, the second time differently.
	again := obs[7]
	again.Packets += 1000
	again.LastSeen = again.LastSeen.Add(time.Hour)
	dup := append(slices.Clone(obs), again)
	got, want := h.BuildMonth("2020-04", start, dup).Table, buildMonthRowByRow(t, h, dup)
	sameTable(t, "a source observed twice", got, want)
	if got.NRows() != len(obs) || got.NNZ() != monthColumns*len(obs) {
		t.Errorf("a source observed twice: %d cells in %d rows, want %d in %d",
			got.NNZ(), got.NRows(), monthColumns*len(obs), len(obs))
	}
	if v, _ := got.Get(again.Src.IP.String(), ColPackets); v.Num != float64(again.Packets) {
		t.Errorf("a source observed twice: packets = %v, want the later row's %d", v, again.Packets)
	}

	// Rows cut from one slab are neighbours in memory; whatever happens
	// to one must not show in the others.
	got, want = h.BuildMonth("2020-04", start, obs).Table, buildMonthRowByRow(t, h, obs)
	grown, wide, gone := obs[10].Src.IP.String(), obs[11].Src.IP.String(), obs[12].Src.IP.String()
	for _, table := range []*assoc.Assoc{got, want} {
		table.Set(grown, "zz_seventh", assoc.Num(7))
		table.Set(grown, "a_first", assoc.Num(1))
		for i := 0; i < 300; i++ { // past a run's block length, in no order
			table.Set(wide, fmt.Sprintf("x%03d", (i*7)%300), assoc.Num(float64(i)))
		}
		for _, col := range []string{ColClassification, ColFirstSeen, ColIntent, ColLastSeen, ColPackets, ColTags} {
			table.Delete(gone, col)
		}
	}
	if got.HasRow(gone) {
		t.Error("a slab-cut row survived the deletion of all its cells")
	}
	sameTable(t, "after a row grew, a row widened and a row went", got, want)
}

// TestConverseAllocatesNothing: a profile is one of a handful of static
// values.
func TestConverseAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector perturbs allocation counts")
	}
	var sink *profile
	for typ := radiation.Scanner; typ <= radiation.Misconfiguration; typ++ {
		for _, persistent := range []bool{false, true} {
			src := radiation.Source{Type: typ, Persistent: persistent}
			if n := testing.AllocsPerRun(10, func() { sink = converse(src) }); n != 0 {
				t.Errorf("converse(%v, persistent %v) allocates %v times", typ, persistent, n)
			}
			if want := strings.Join(sink.Tags, ","); converse(src).tags != want {
				t.Errorf("%v: joined tags %q, want %q", typ, converse(src).tags, want)
			}
		}
	}
}

func monthObservations(tb testing.TB) (*Honeyfarm, time.Time, []radiation.Observation) {
	tb.Helper()
	cfg := radiation.DefaultConfig()
	cfg.NumSources = 20000
	pop, err := radiation.NewPopulation(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	start := time.Date(2020, 3, 1, 0, 0, 0, 0, time.UTC)
	obs := pop.HoneyfarmMonth(1, start)
	if len(obs) < 1000 {
		tb.Fatalf("only %d observations", len(obs))
	}
	return New(30, 7), start, obs
}

// TestBuildMonthTableAllocations is the alloc gate on the slab build: a
// month is its text arena, its cell slab, the block headers, the row
// map at its final size and a few slices of bookkeeping — nothing per
// row.
func TestBuildMonthTableAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector perturbs allocation counts")
	}
	farm, start, obs := monthObservations(t)
	var sink int
	build := testing.AllocsPerRun(3, func() {
		sink += farm.BuildMonth("2020-03", start, obs).Table.NRows()
	})
	perRow := build / float64(len(obs))
	t.Logf("%d rows: %.0f allocations, %.4f per row", len(obs), build, perRow)
	if perRow > 0.05 {
		t.Errorf("BuildMonth costs %.4f allocations per row, want <= 0.05", perRow)
	}
}

func BenchmarkBuildMonth(b *testing.B) {
	farm, start, obs := monthObservations(b)
	b.ReportAllocs()
	var allocs float64
	if !raceEnabled {
		allocs = testing.AllocsPerRun(1, func() { farm.BuildMonth("2020-03", start, obs) })
	}
	b.ResetTimer()
	for b.Loop() {
		farm.BuildMonth("2020-03", start, obs)
	}
	b.ReportMetric(float64(len(obs))*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
	b.ReportMetric(allocs/float64(len(obs)), "allocs/row")
}
