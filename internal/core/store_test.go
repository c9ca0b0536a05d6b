package core

// store_test.go proves the tripled-backed pipeline path is a no-op for
// the science: routing every correlation table through the database
// service must reproduce the in-memory study's artifacts byte for byte.

import (
	"fmt"
	"testing"

	"repro/internal/tripled"
)

// renderFig4 serializes the Fig. 4 artifact so runs can be compared
// byte for byte.
func renderFig4(t *testing.T, r *Result) string {
	t.Helper()
	fig4, err := r.Report().Fig4()
	if err != nil {
		t.Fatal(err)
	}
	out := ""
	for _, s := range fig4 {
		out += s.Label + "\n"
		for i, p := range s.Points {
			out += fmt.Sprintf("%+v\t%v\n", p, s.Model[i])
		}
	}
	return out
}

// renderTableII serializes the Table II artifact.
func renderTableII(r *Result) string {
	out := ""
	for _, q := range r.Report().TableII() {
		out += fmt.Sprintf("%+v\n", q)
	}
	return out
}

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

	// Byte-identical artifacts.
	if got, wantS := renderTableII(res), renderTableII(mem); got != wantS {
		t.Errorf("Table II differs between store-backed and in-memory runs:\n%s\nvs\n%s", got, wantS)
	}
	if got, wantS := renderFig4(t, res), renderFig4(t, mem); got != wantS {
		t.Errorf("Fig. 4 differs between store-backed and in-memory runs:\n%s\nvs\n%s", got, wantS)
	}

	// And the tables themselves round-tripped losslessly.
	for i, m := range res.Study.Months {
		memM := mem.Study.Months[i]
		if m.Table.NNZ() != memM.Table.NNZ() || m.Table.NRows() != memM.Table.NRows() {
			t.Errorf("month %s: fetched table shape %dx%d cells, in-memory %dx%d",
				m.Label, m.Table.NRows(), m.Table.NNZ(), memM.Table.NRows(), memM.Table.NNZ())
		}
	}
}
