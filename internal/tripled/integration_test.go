package tripled_test

import (
	"testing"
	"time"

	"repro/internal/assoc"
	"repro/internal/honeyfarm"
	"repro/internal/radiation"
	"repro/internal/stats"
	"repro/internal/tripled"
)

// TestHoneyfarmMonthServedOverTCP loads a honeyfarm month table into the
// triple store, serves it, and answers the analyst queries of the
// paper's workflow over the network: the month fetched back as a table,
// the classification census taken from it, and heaviest-row selection
// via the degree table.
func TestHoneyfarmMonthServedOverTCP(t *testing.T) {
	cfg := radiation.DefaultConfig()
	cfg.NumSources = 2000
	cfg.ZM = stats.PaperZM(1 << 10)
	pop, err := radiation.NewPopulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Date(2020, 6, 1, 0, 0, 0, 0, time.UTC)
	mw := honeyfarm.BuildMonth("2020-06", pop.HoneyfarmMonth(4, start))
	if mw.Sources() == 0 {
		t.Fatal("empty month")
	}

	store := tripled.NewStore()
	store.LoadAssoc(mw.Table)
	if store.NNZ() != mw.Table.NNZ() {
		t.Fatalf("store NNZ %d != table NNZ %d", store.NNZ(), mw.Table.NNZ())
	}

	srv, err := tripled.Serve(store, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := tripled.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// The month fetched over the wire; its classification census must
	// agree with the local one.
	month, err := c.FetchAssoc("", 512)
	if err != nil {
		t.Fatal(err)
	}
	if month.NRows() != mw.Sources() {
		t.Errorf("fetched month has %d rows, want %d", month.NRows(), mw.Sources())
	}
	counts := make(map[string]int)
	month.Iterate(func(_, col string, v assoc.Value) bool {
		if col == honeyfarm.ColClassification {
			counts[v.Str]++
		}
		return true
	})
	for _, row := range mw.ClassificationCensus() {
		if counts[row.Classification] != row.Sources {
			t.Errorf("census mismatch for %s: %d vs %d",
				row.Classification, counts[row.Classification], row.Sources)
		}
	}

	// Degree table: every source row carries the same 6 enrichment
	// columns, so the top rows all have degree 6.
	top, err := c.TopRowsByDegree(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 5 {
		t.Fatalf("top = %v", top)
	}
	for _, rd := range top {
		if rd.Degree != 6 {
			t.Errorf("row %s degree = %d, want 6", rd.Row, rd.Degree)
		}
	}

	// Export back to an assoc and verify nothing was lost on the server.
	back := store.ToAssoc()
	if back.NNZ() != mw.Table.NNZ() {
		t.Error("export lost cells")
	}
	var miss int
	mw.Table.Iterate(func(r, c2 string, v assoc.Value) bool {
		if got, ok := back.Get(r, c2); !ok || got != v {
			miss++
		}
		return true
	})
	if miss != 0 {
		t.Errorf("%d cells corrupted through the store", miss)
	}
}
