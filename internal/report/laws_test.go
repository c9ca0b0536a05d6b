package report_test

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/report"
)

// TestT1CountsSnapshotMonths: two snapshots in one month are one Table I
// row, whose CAIDA columns show the later of the two, so T1 counts
// snapshot months, not snapshot times. T1 used to compare the
// configured times against the rows and failed this study.
func TestT1CountsSnapshotMonths(t *testing.T) {
	cfg := core.QuickConfig()
	cfg.NV = 1 << 12
	cfg.Radiation.NumSources = 3000
	cfg.SnapshotTimes = []time.Time{
		time.Date(2020, 6, 3, 0, 0, 0, 0, time.UTC),
		time.Date(2020, 6, 24, 0, 0, 0, 0, time.UTC),
		time.Date(2020, 9, 16, 12, 0, 0, 0, time.UTC),
	}
	p, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	g := res.Report()
	june := ""
	for _, row := range g.TableI() {
		if row.GNStart == "2020-06-01" {
			june = row.CAIDAStart
		}
	}
	if want := res.Study.Snapshots[1].Label; june != want {
		t.Errorf("June row shows snapshot %q, want the month's last, %q", june, want)
	}
	if r := g.Judge(report.Laws()[0]); r.ID != "T1" || r.Verdict != report.Pass {
		t.Errorf("%s: %s: %s", r.ID, r.Verdict, r.Measured)
	}
}
