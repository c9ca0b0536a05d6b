package core

// month_test.go holds the in-memory month unit — the set of the month's
// source addresses, no table rendered — to the table honeyfarm.BuildMonth
// renders from the same observations.

import (
	"slices"
	"testing"

	"repro/internal/assoc"
	"repro/internal/correlate"
	"repro/internal/honeyfarm"
	"repro/internal/ipaddr"
	"repro/internal/stats"
)

// studyBatchConfig is the benchmark's study_batch shape: 2^18-packet
// windows over a 100k-source population.
func studyBatchConfig() Config {
	c := DefaultConfig()
	c.NV = 1 << 18
	c.LeafSize = 1 << 14
	c.Radiation.NumSources = 100000
	c.Radiation.ZM = stats.PaperZM(1 << 16)
	c.Radiation.BrightLog2 = 9
	return c
}

// sameSourcesAsTable fails unless md's set is exactly table's row
// addresses. Frozen against a snapshot whose sources are the table's
// rows (each row's packets, at least 1, puts it in a band), the month
// must match every row; with as many sources as rows, the set is the
// rows.
func sameSourcesAsTable(t *testing.T, name string, md correlate.MonthData, table *assoc.Assoc) {
	t.Helper()
	if md.Sources() != table.NRows() {
		t.Errorf("%s: month set has %d sources, table %d rows", name, md.Sources(), table.NRows())
	}
	f := correlate.Freeze(correlate.Study{
		Months:    []correlate.MonthData{md},
		Snapshots: []correlate.Snapshot{{Label: name, Month: float64(md.Month), NV: 1, Sources: table}},
	}, 1)
	rows, matched := 0, 0
	for _, b := range f.PeakCorrelation(0, 0) {
		rows, matched = rows+b.Sources, matched+b.Matched
	}
	if rows != table.NRows() || matched != rows {
		t.Errorf("%s: month set holds %d of the table's %d rows (%d banded)", name, matched, table.NRows(), rows)
	}
}

func TestMonthSetMatchesTable(t *testing.T) {
	shapes := []struct {
		name   string
		cfg    Config
		months []int
	}{
		{"quick", QuickConfig(), nil}, // every month
		{"study_batch", studyBatchConfig(), []int{5}},
	}
	for _, sh := range shapes {
		p, err := New(sh.cfg)
		if err != nil {
			t.Fatal(err)
		}
		months := sh.months
		if months == nil {
			for m := range sh.cfg.Radiation.Months {
				months = append(months, m)
			}
		}
		for _, m := range months {
			md, err := p.IngestMonth(nil, m)
			if err != nil {
				t.Fatalf("%s month %d: %v", sh.name, m, err)
			}
			table := honeyfarm.BuildMonth(md.Label, p.pop.HoneyfarmMonth(m, sh.cfg.StudyStart.AddDate(0, m, 0))).Table
			sameSourcesAsTable(t, sh.name+" "+md.Label, md, table)
		}
	}

	// To correlate.NewMonth, an address given twice is one source, and
	// a month nobody touched is an empty set.
	cfg := QuickConfig()
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	obs := p.pop.HoneyfarmMonth(4, cfg.StudyStart.AddDate(0, 4, 0))
	dup := append(slices.Clip(obs), obs[len(obs)/2])
	addrs := make([]ipaddr.Addr, len(dup))
	for i, o := range dup {
		addrs[i] = o.Src.IP
	}
	md := correlate.NewMonth("dup", 4, addrs)
	if md.Sources() != len(obs) {
		t.Errorf("%d addresses of %d sources: month set has %d", len(dup), len(obs), md.Sources())
	}
	sameSourcesAsTable(t, "dup", md, honeyfarm.BuildMonth("dup", dup).Table)
	sameSourcesAsTable(t, "empty", correlate.NewMonth("empty", 4, nil), honeyfarm.BuildMonth("empty", nil).Table)
}

// BenchmarkMonthUnit is one in-memory month unit at the study_batch
// shape: the month's visibility scan reduced to its source set.
func BenchmarkMonthUnit(b *testing.B) {
	p, err := New(studyBatchConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		if _, err := p.IngestMonth(nil, i%p.cfg.Radiation.Months); err != nil {
			b.Fatal(err)
		}
	}
}
