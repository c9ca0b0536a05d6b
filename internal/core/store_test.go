package core

// store_test.go proves the tripled-backed pipeline path is a no-op for
// the science: routing every correlation table through the database
// service must reproduce the in-memory study's artifacts byte for byte.

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/assoc"
	"repro/internal/correlate"
	"repro/internal/honeyfarm"
	"repro/internal/ipaddr"
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
	// still in the store under its prefix, every month whole — cell for
	// cell the table BuildMonth renders from the month's observations —
	// though the study read back its rows alone.
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
	for i, m := range res.Study.Months {
		if m.Table != nil {
			t.Errorf("month %s: a store-backed month carries a table; it is its address set", m.Label)
		}
		if !reflect.DeepEqual(m, mem.Study.Months[i]) {
			t.Errorf("month %s: store-backed month differs from the in-memory one", m.Label)
		}
		held, err := honeyfarm.FetchMonthTable(c, m.Label)
		if err != nil {
			t.Fatal(err)
		}
		want += held.NNZ()
		built := honeyfarm.BuildMonth(m.Label, p.pop.HoneyfarmMonth(m.Month, cfg.StudyStart.AddDate(0, m.Month, 0)))
		if got, want := tableTSV(t, held), tableTSV(t, built.Table); got != want {
			t.Errorf("month %s: the store's table differs from BuildMonth's at %s", m.Label, testkit.DiffLines(got, want))
		}
		var rows []ipaddr.Addr
		for row := range held.Rows() {
			a, err := ipaddr.Parse(row)
			if err != nil {
				t.Fatal(err)
			}
			rows = append(rows, a)
		}
		if !reflect.DeepEqual(correlate.NewMonth(m.Label, m.Month, rows), m) {
			t.Errorf("month %s: the store's rows are not the month's address set", m.Label)
		}
	}
	for _, s := range res.Study.Snapshots {
		want += len(s.Addrs()) // one packets cell per source
	}
	if nnz != want {
		t.Errorf("store holds %d cells, published tables total %d", nnz, want)
	}

	// Byte-identical artifacts, every one of them.
	sameRender(t, "store-backed vs in-memory", renderAll(t, res), renderAll(t, mem))
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
// The retry leaves the store the month table a fresh pipeline publishes
// and returns the month a fresh pipeline fetches, and a study grown
// through the failure renders the same Table I as one that never saw
// it.
func TestStoreMonthRetryAfterFailedPublish(t *testing.T) {
	cfg := schedulerConfig()
	const failed = 3
	study := func(flaky bool) (*Result, correlate.MonthData, *assoc.Assoc) {
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
		md := res.Study.Months[at]
		held, err := honeyfarm.FetchMonthTable(c, md.Label)
		if err != nil {
			t.Fatal(err)
		}
		return res, md, held
	}
	retried, retriedMonth, retriedTable := study(true)
	fresh, freshMonth, freshTable := study(false)
	if got, want := tableTSV(t, retriedTable), tableTSV(t, freshTable); got != want {
		t.Errorf("month %d's table in the store after a retried publish differs from a fresh publish at %s", failed, testkit.DiffLines(got, want))
	}
	if !reflect.DeepEqual(retriedMonth, freshMonth) {
		t.Errorf("month %d retried after a failed publish differs from a fresh fetch", failed)
	}
	got, _ := renderArtifact(t, retried, report.Table1)
	want, _ := renderArtifact(t, fresh, report.Table1)
	if got != want {
		t.Errorf("Table I of the retried study differs at %s", testkit.DiffLines(got, want))
	}
}
