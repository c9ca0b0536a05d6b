package core

// snapshot_test.go holds the snapshot unit, in memory and with a store,
// to the freeze of the source table the same window renders.

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/correlate"
	"repro/internal/tripled"
)

// TestSnapshotSetMatchesSourceTable: for the golden shapes, the
// snapshot the unit hands the study freezes, band by band, to what a
// hand-built snapshot of the window's source table freezes to — in
// memory and through a store. Both studies hold the snapshot's coeval
// in-memory month, so a differing band also shows in its overlap.
func TestSnapshotSetMatchesSourceTable(t *testing.T) {
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

	shapes := []struct {
		name  string
		cfg   Config
		times int // the first times snapshot times; 0 is all of them
	}{
		{"quick", QuickConfig(), 0},
		{"study_batch", studyBatchConfig(), 1},
	}
	for _, sh := range shapes {
		times := sh.cfg.SnapshotTimes
		if sh.times > 0 {
			times = times[:sh.times]
		}
		for _, db := range []tripled.Conn{nil, c} {
			p, err := New(sh.cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, ts := range times {
				w, snap, err := p.IngestSnapshot(context.Background(), db, ts)
				if err != nil {
					t.Fatalf("%s %v: %v", sh.name, ts, err)
				}
				name := sh.name + " " + snap.Label
				if db != nil {
					name += " (store)"
				}
				md, err := p.IngestMonth(nil, int(snap.Month))
				if err != nil {
					t.Fatal(err)
				}
				hand := correlate.Snapshot{Label: snap.Label, Month: snap.Month, NV: snap.NV, Sources: p.tel.SourceTable(w)}
				got := correlate.Freeze(correlate.Study{Snapshots: []correlate.Snapshot{snap}, Months: []correlate.MonthData{md}}, 1)
				want := correlate.Freeze(correlate.Study{Snapshots: []correlate.Snapshot{hand}, Months: []correlate.MonthData{md}}, 1)
				if len(want.Bands(0)) == 0 {
					t.Fatalf("%s: the source table freezes to no band", name)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: the unit's snapshot freezes to bands of (band, sources, matched) %v, its source table to %v",
						name, bandSizes(got), bandSizes(want))
				}
			}
		}
	}
}

// bandSizes lists a one-snapshot Frozen's bands as (band, sources,
// matched) against its one month.
func bandSizes(f *correlate.Frozen) [][3]int {
	var out [][3]int
	for _, b := range f.PeakCorrelation(0, 0) {
		out = append(out, [3]int{b.Band, b.Sources, b.Matched})
	}
	return out
}
