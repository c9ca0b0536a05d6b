package telescope

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/assoc"
	"repro/internal/radiation"
	"repro/internal/stats"
	"repro/internal/tripled"
)

// TestPublishFetchSourceTableRoundTrip pushes a captured window's D4M
// source table through a tripled server and back: the fetched table
// must be identical to SourceTable's output, including exact float
// packet counts.
func TestPublishFetchSourceTableRoundTrip(t *testing.T) {
	cfg := radiation.DefaultConfig()
	cfg.NumSources = 1500
	cfg.ZM = stats.PaperZM(1 << 9)
	pop, err := radiation.NewPopulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tel := New(cfg.Darkspace, "publish-key", WithLeafSize(1<<9))
	w, err := tel.CaptureWindowEngine(context.Background(), pop.TelescopeStream(3, time.Unix(0, 0)), 2048, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := tel.SourceTable(w)

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

	const label = "20200617-120000"
	if err := tel.PublishSourceTable(c, label, w); err != nil {
		t.Fatal(err)
	}
	back, err := FetchSourceTable(c, label)
	if err != nil {
		t.Fatal(err)
	}
	if back.NNZ() != want.NNZ() || back.NRows() != want.NRows() {
		t.Fatalf("fetched table %d rows / %d cells, want %d / %d",
			back.NRows(), back.NNZ(), want.NRows(), want.NNZ())
	}
	want.Iterate(func(r, col string, v assoc.Value) bool {
		if got, ok := back.Get(r, col); !ok || got != v {
			t.Errorf("cell (%s,%s) = %v, want %v", r, col, got, v)
		}
		return true
	})
}

// TestFetchSourceTableRefusesNonAddressRow: a source table's rows are
// source addresses; a row under the snapshot's prefix that is not a
// canonical dotted quad is refused with the row named.
func TestFetchSourceTableRefusesNonAddressRow(t *testing.T) {
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

	const label = "20200617-120000"
	sources := assoc.New()
	sources.Set("1.2.3.4", "packets", assoc.Num(8))
	sources.Set("10.0.0.1", "packets", assoc.Num(2))
	for _, bad := range []string{"host-a", "01.2.3.4", "1.2.3.4.5"} {
		if err := PublishSources(c, label, sources); err != nil {
			t.Fatal(err)
		}
		if back, err := FetchSourceTable(c, label); err != nil || back.NRows() != 2 {
			t.Fatalf("clean fetch = %v, %v; want the 2 published rows", back, err)
		}
		row := SnapshotRowPrefix(label) + bad
		if err := c.Put(row, "packets", assoc.Num(4)); err != nil {
			t.Fatal(err)
		}
		if back, err := FetchSourceTable(c, label); err == nil || !strings.Contains(err.Error(), `"`+row+`"`) {
			t.Errorf("fetch with row %q = %v, %v; want an error naming the row", row, back, err)
		}
	}
}
