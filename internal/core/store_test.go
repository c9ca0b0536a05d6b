package core

// store_test.go proves the tripled-backed pipeline path is a no-op for
// the science: routing every correlation table through the database
// service must reproduce the in-memory study's artifacts byte for byte.

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/assoc"
	"repro/internal/correlate"
	"repro/internal/honeyfarm"
	"repro/internal/report"
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
	for _, m := range res.Study.Months {
		built := honeyfarm.BuildMonth(m.Label, p.pop.HoneyfarmMonth(m.Month, cfg.StudyStart.AddDate(0, m.Month, 0)))
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

var errPublishRefused = errors.New("publish refused")

// failFirstPublish is a store connection whose first PublishAssoc fails
// without reaching the store; every later call goes through.
type failFirstPublish struct {
	tripled.Conn
	failed bool
}

func (c *failFirstPublish) PublishAssoc(prefix string, a *assoc.Assoc, batchSize int) error {
	if !c.failed {
		c.failed = true
		return errPublishRefused
	}
	return c.Conn.PublishAssoc(prefix, a, batchSize)
}

// TestStoreMonthRetryAfterFailedPublish: a month unit whose publish
// failed keeps nothing it built, so its retry builds the month again.
// The retry returns the table a fresh pipeline fetches for that month,
// and a study grown through the failure renders the same Table I as
// one that never saw it.
func TestStoreMonthRetryAfterFailedPublish(t *testing.T) {
	cfg := schedulerConfig()
	const failed = 3
	study := func(flaky bool) (*Result, correlate.MonthData) {
		t.Helper()
		srv, err := tripled.Serve(tripled.NewStore(), "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		c, err := tripled.Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		p, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var db tripled.Conn = c
		if flaky {
			db = &failFirstPublish{Conn: c}
			if _, err := p.IngestMonth(db, failed); !errors.Is(err, errPublishRefused) {
				t.Fatalf("month %d through a refusing store: %v, want the refusal", failed, err)
			}
		}
		res := &Result{Config: cfg}
		for m := range cfg.Radiation.Months {
			md, err := p.IngestMonth(db, m)
			if err != nil {
				t.Fatalf("month %d: %v", m, err)
			}
			if err := res.AddMonth(md); err != nil {
				t.Fatal(err)
			}
		}
		at, _ := res.monthAt(failed)
		return res, res.Study.Months[at]
	}
	retried, retriedMonth := study(true)
	fresh, freshMonth := study(false)
	if got, want := tableTSV(t, retriedMonth.Table), tableTSV(t, freshMonth.Table); got != want {
		t.Errorf("month %d retried after a failed publish differs from a fresh fetch at %s", failed, testkit.DiffLines(got, want))
	}
	got, _ := renderArtifact(t, retried, report.Table1)
	want, _ := renderArtifact(t, fresh, report.Table1)
	if got != want {
		t.Errorf("Table I of the retried study differs at %s", testkit.DiffLines(got, want))
	}
}
