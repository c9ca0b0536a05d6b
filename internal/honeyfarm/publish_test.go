package honeyfarm

import (
	"testing"
	"time"

	"repro/internal/assoc"
	"repro/internal/radiation"
	"repro/internal/stats"
	"repro/internal/tripled"
)

// TestPublishFetchMonthRoundTrip publishes an ingested month to a
// tripled server and reads it back: the fetched table must be
// cell-for-cell identical, and live under the month's row prefix so
// other months cannot collide.
func TestPublishFetchMonthRoundTrip(t *testing.T) {
	cfg := radiation.DefaultConfig()
	cfg.NumSources = 800
	cfg.ZM = stats.PaperZM(1 << 9)
	pop, err := radiation.NewPopulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	farm := New(30, 7)
	start := time.Date(2020, 3, 1, 0, 0, 0, 0, time.UTC)
	mw := farm.IngestMonth("2020-03", start, pop.HoneyfarmMonth(1, start))
	mw2 := farm.IngestMonth("2020-04", start.AddDate(0, 1, 0), pop.HoneyfarmMonth(2, start.AddDate(0, 1, 0)))

	srv, err := tripled.Serve(tripled.NewStore(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := tripled.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := mw.Publish(c); err != nil {
		t.Fatal(err)
	}
	if err := mw2.Publish(c); err != nil {
		t.Fatal(err)
	}

	back, err := FetchMonthTable(c, "2020-03")
	if err != nil {
		t.Fatal(err)
	}
	if back.NNZ() != mw.Table.NNZ() {
		t.Fatalf("fetched %d cells, published %d", back.NNZ(), mw.Table.NNZ())
	}
	mw.Table.Iterate(func(r, col string, v assoc.Value) bool {
		if got, ok := back.Get(r, col); !ok || got != v {
			t.Errorf("cell (%s,%s) = %v, want %v", r, col, got, v)
		}
		return true
	})

	// Months are isolated by prefix: fetching an unpublished label is
	// empty, and the store holds exactly both tables.
	empty, err := FetchMonthTable(c, "2020-12")
	if err != nil {
		t.Fatal(err)
	}
	if empty.NNZ() != 0 {
		t.Errorf("unpublished month fetched %d cells", empty.NNZ())
	}
	nnz, err := c.NNZ()
	if err != nil {
		t.Fatal(err)
	}
	if want := mw.Table.NNZ() + mw2.Table.NNZ(); nnz != want {
		t.Errorf("store NNZ = %d, want %d", nnz, want)
	}
}
