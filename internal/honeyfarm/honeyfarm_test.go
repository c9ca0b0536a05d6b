package honeyfarm

import (
	"strings"
	"testing"
	"time"

	"repro/internal/assoc"
	"repro/internal/ipaddr"
	"repro/internal/radiation"
	"repro/internal/stats"
	"repro/internal/tripled"
)

func testPopulation(t *testing.T, n int) *radiation.Population {
	t.Helper()
	c := radiation.DefaultConfig()
	c.NumSources = n
	c.ZM = stats.PaperZM(1 << 12)
	p, err := radiation.NewPopulation(c)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewSensors(t *testing.T) {
	h := New(300, 7)
	if len(h.sensors) != 300 {
		t.Fatalf("sensors = %d, want 300", len(h.sensors))
	}
	seen := make(map[ipaddr.Addr]bool)
	for _, s := range h.sensors {
		if ipaddr.IsPrivate(s) {
			t.Fatalf("private sensor address %v", s)
		}
		if seen[s] {
			t.Fatalf("duplicate sensor %v", s)
		}
		seen[s] = true
	}
	h2 := New(300, 7)
	for i := range h.sensors {
		if h.sensors[i] != h2.sensors[i] {
			t.Fatal("sensor generation not deterministic")
		}
	}
}

func TestIngestMonthSchema(t *testing.T) {
	pop := testPopulation(t, 2000)
	h := New(100, 1)
	start := time.Date(2020, 2, 1, 0, 0, 0, 0, time.UTC)
	mw := h.IngestMonth("2020-02", start, pop.HoneyfarmMonth(0, start))
	if mw.Sources() == 0 {
		t.Fatal("month table empty")
	}
	cols := mw.Table.ColKeys()
	for _, want := range []string{ColPackets, ColClassification, ColIntent, ColFirstSeen, ColLastSeen, ColTags} {
		found := false
		for _, c := range cols {
			if c == want {
				found = true
			}
		}
		if !found {
			t.Errorf("column %q missing from month table", want)
		}
	}
	// Every row fully populated.
	for _, row := range mw.Table.RowKeys() {
		for _, col := range []string{ColPackets, ColClassification, ColIntent} {
			if _, ok := mw.Table.Get(row, col); !ok {
				t.Fatalf("row %s missing %s", row, col)
			}
		}
	}
}

func TestConverseClassifications(t *testing.T) {
	cases := []struct {
		typ    radiation.Archetype
		class  string
		intent string
	}{
		{radiation.Scanner, "scanner", "suspicious"},
		{radiation.Worm, "worm", "malicious"},
		{radiation.Backscatter, "backscatter", "benign"},
		{radiation.BotnetKeepalive, "botnet", "malicious"},
		{radiation.Misconfiguration, "misconfiguration", "benign"},
	}
	for _, c := range cases {
		p := converse(radiation.Source{Type: c.typ})
		if p.Classification != c.class || p.Intent != c.intent {
			t.Errorf("%v -> (%s, %s), want (%s, %s)", c.typ, p.Classification, p.Intent, c.class, c.intent)
		}
		if len(p.Tags) == 0 {
			t.Errorf("%v has no tags", c.typ)
		}
	}
	// Persistent scanners are benign identified crawlers.
	p := converse(radiation.Source{Type: radiation.Scanner, Persistent: true})
	if p.Intent != "benign" || !strings.Contains(strings.Join(p.Tags, ","), "identified-crawler") {
		t.Errorf("persistent scanner profile = %+v", p)
	}
}

func TestClassificationCensus(t *testing.T) {
	pop := testPopulation(t, 5000)
	start := time.Date(2020, 3, 1, 0, 0, 0, 0, time.UTC)
	mw := BuildMonth("2020-03", pop.HoneyfarmMonth(1, start))
	census := mw.ClassificationCensus()
	if len(census) == 0 {
		t.Fatal("empty census")
	}
	total := 0
	for i, row := range census {
		total += row.Sources
		if i > 0 && census[i-1].Sources < row.Sources {
			t.Error("census not sorted by descending count")
		}
		if row.String() == "" {
			t.Error("empty census row rendering")
		}
	}
	if total != mw.Sources() {
		t.Errorf("census total %d != sources %d", total, mw.Sources())
	}
	// scanners dominate the population mix, so they should lead
	if census[0].Classification != "scanner" {
		t.Errorf("dominant class = %s, want scanner", census[0].Classification)
	}
}

func TestMonthlySourceCountsGrowWithVisibility(t *testing.T) {
	// Sources visible in their beam month should make tables non-trivial
	// across the whole study period.
	pop := testPopulation(t, 3000)
	start := time.Date(2020, 2, 1, 0, 0, 0, 0, time.UTC)
	for m := 0; m < pop.Config().Months; m++ {
		ms := start.AddDate(0, m, 0)
		mw := BuildMonth(ms.Format("2006-01"), pop.HoneyfarmMonth(m, ms))
		if mw.Sources() < 10 {
			t.Errorf("month %s has only %d sources", mw.Label, mw.Sources())
		}
	}
}

func TestMonthTableTSVRoundTrip(t *testing.T) {
	pop := testPopulation(t, 500)
	start := time.Date(2020, 5, 1, 0, 0, 0, 0, time.UTC)
	mw := BuildMonth("2020-05", pop.HoneyfarmMonth(3, start))
	var sb strings.Builder
	if err := mw.Table.WriteTSV(&sb); err != nil {
		t.Fatal(err)
	}
	back, err := assoc.ReadTSV(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back.NNZ() != mw.Table.NNZ() {
		t.Errorf("TSV round trip lost cells: %d vs %d", back.NNZ(), mw.Table.NNZ())
	}
}

// TestFetchMonthTableRefusesNonAddressRow: a month table's rows are
// source addresses, and a fetch is where a table enters a study from
// outside. A row under the month's prefix that is no address — left by
// another writer — is refused with the row named, instead of joining
// the correlation as a source no telescope can ever see.
func TestFetchMonthTableRefusesNonAddressRow(t *testing.T) {
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

	start := time.Date(2020, 2, 1, 0, 0, 0, 0, time.UTC)
	mw := BuildMonth("2020-02", testPopulation(t, 300).HoneyfarmMonth(0, start))
	if err := mw.Publish(c); err != nil {
		t.Fatal(err)
	}
	back, err := FetchMonthTable(c, "2020-02")
	if err != nil || back.NNZ() != mw.Table.NNZ() {
		t.Fatalf("clean fetch = %v, %v; want the %d published cells", back, err, mw.Table.NNZ())
	}
	if err := c.Put("hf/2020-02/host-a", ColClassification, assoc.Str("scanner")); err != nil {
		t.Fatal(err)
	}
	back, err = FetchMonthTable(c, "2020-02")
	if err == nil || !strings.Contains(err.Error(), `"hf/2020-02/host-a"`) {
		t.Fatalf("fetch with a non-address row = %v, %v; want an error naming the row", back, err)
	}
}
