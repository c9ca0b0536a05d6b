package core

// store_test.go proves the tripled-backed pipeline path is a no-op for
// the science: routing every correlation table through the database
// service must reproduce the in-memory study's artifacts byte for byte.

import (
	"strings"
	"testing"

	"repro/internal/assoc"
	"repro/internal/honeyfarm"
	"repro/internal/testkit"
	"repro/internal/tripled"
)

func TestStoreBackedStudyMatchesInMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("two full quick studies")
	}
	mem := quickResult(t)

	srv, err := tripled.Serve(tripled.NewStore(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cfg := QuickConfig()
	cfg.StoreAddr = srv.Addr()
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}

	// The service really carried the tables: every month and snapshot is
	// still in the store under its prefix.
	c, err := tripled.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	nnz, err := c.NNZ()
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, m := range res.Study.Months {
		want += m.Table.NNZ()
	}
	for _, s := range res.Study.Snapshots {
		want += s.Sources.NNZ()
	}
	if nnz != want {
		t.Errorf("store holds %d cells, published tables total %d", nnz, want)
	}

	// Byte-identical artifacts, every one of them.
	sameRender(t, "store-backed vs in-memory", renderAll(t, res), renderAll(t, mem))

	// And every month the store holds is, cell for cell, the table
	// BuildMonth renders from the month's observations.
	farm := honeyfarm.New(cfg.Sensors, cfg.Radiation.Seed+1)
	for _, m := range res.Study.Months {
		start := cfg.StudyStart.AddDate(0, m.Month, 0)
		built := farm.BuildMonth(m.Label, start, p.pop.HoneyfarmMonth(m.Month, start))
		if got, want := tableTSV(t, m.Table), tableTSV(t, built.Table); got != want {
			t.Errorf("month %s: fetched table differs from BuildMonth's at %s", m.Label, testkit.DiffLines(got, want))
		}
	}
}

func tableTSV(t *testing.T, a *assoc.Assoc) string {
	t.Helper()
	var b strings.Builder
	if err := a.WriteTSV(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}
