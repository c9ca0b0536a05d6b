package telescope

import (
	"context"
	"maps"
	"strings"
	"testing"
	"time"

	"repro/internal/assoc"
	"repro/internal/ipaddr"
	"repro/internal/radiation"
	"repro/internal/stats"
	"repro/internal/tripled"
)

// TestPublishFetchSourceTableRoundTrip pushes a captured window's D4M
// source table through a tripled server and back: the fetched table
// must be identical to SourceTable's output, including exact float
// packet counts, and the fetched pairs SourcePackets', in any order.
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

	addrs, packets, err := FetchSourcePackets(c, label)
	if err != nil {
		t.Fatal(err)
	}
	wantAddrs, wantPackets := tel.SourcePackets(w)
	if got, want := pairsOf(addrs, packets), pairsOf(wantAddrs, wantPackets); !maps.Equal(got, want) || len(addrs) != len(wantAddrs) {
		t.Errorf("fetched %d pairs, SourcePackets %d; they differ", len(addrs), len(wantAddrs))
	}
}

func pairsOf(addrs []ipaddr.Addr, packets []float64) map[ipaddr.Addr]float64 {
	m := make(map[ipaddr.Addr]float64, len(addrs))
	for i, a := range addrs {
		m[a] = packets[i]
	}
	return m
}

// TestFetchSourceTableRefusesNonAddressRow: a source table's rows are
// source addresses with a packet count; a row under the snapshot's
// prefix that is not a canonical dotted quad, or holds no numeric
// count, is refused with the row named, by both fetches.
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
	for _, bad := range []struct {
		row, col string
		val      assoc.Value
	}{
		{"host-a", "packets", assoc.Num(4)},
		{"01.2.3.4", "packets", assoc.Num(4)},
		{"1.2.3.4.5", "packets", assoc.Num(4)},
		{"5.6.7.8", "packets", assoc.Str("four")},
		{"5.6.7.8", "note", assoc.Num(4)},
	} {
		if err := c.PublishAssoc(SnapshotRowPrefix(label), sources, 1024); err != nil {
			t.Fatal(err)
		}
		if back, err := FetchSourceTable(c, label); err != nil || back.NRows() != 2 {
			t.Fatalf("clean fetch = %v, %v; want the 2 published rows", back, err)
		}
		if addrs, _, err := FetchSourcePackets(c, label); err != nil || len(addrs) != 2 {
			t.Fatalf("clean fetch = %v, %v; want the 2 published sources", addrs, err)
		}
		row := SnapshotRowPrefix(label) + bad.row
		if err := c.Put(row, bad.col, bad.val); err != nil {
			t.Fatal(err)
		}
		if back, err := FetchSourceTable(c, label); err == nil || !strings.Contains(err.Error(), `"`+row+`"`) {
			t.Errorf("fetch with row %q = %v, %v; want an error naming the row", row, back, err)
		}
		if addrs, _, err := FetchSourcePackets(c, label); err == nil || !strings.Contains(err.Error(), `"`+row+`"`) {
			t.Errorf("pairs fetch with row %q = %v, %v; want an error naming the row", row, addrs, err)
		}
	}
}
