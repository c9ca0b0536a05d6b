package telescope

import (
	"context"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/hypersparse"
)

func TestCaptureToArchiveMatchesInMemory(t *testing.T) {
	pop := testPopulation(t, 3000)
	const nv = 4096
	const leafSize = 512

	// In-memory window.
	telMem := New(pop.Config().Darkspace, "arch-key", WithLeafSize(leafSize))
	wMem, err := telMem.CaptureWindowEngine(context.Background(), pop.TelescopeStream(4, time.Unix(0, 0)), nv, 1, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Archived window with the same anonymization key.
	dir := t.TempDir()
	aw, err := archive.Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	telArc := New(pop.Config().Darkspace, "arch-key", WithLeafSize(leafSize))
	valid, dropped, err := telArc.CaptureToArchive(pop.TelescopeStream(4, time.Unix(0, 0)), nv, aw)
	if err != nil {
		t.Fatal(err)
	}
	if valid != wMem.NV || dropped != wMem.Dropped {
		t.Fatalf("archived %d/%d vs in-memory %d/%d", valid, dropped, wMem.NV, wMem.Dropped)
	}
	if err := aw.Finish(); err != nil {
		t.Fatal(err)
	}
	if aw.Leaves() != nv/leafSize {
		t.Errorf("leaves = %d, want %d", aw.Leaves(), nv/leafSize)
	}

	ds, err := archive.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ds.SumAll(4)
	if err != nil {
		t.Fatal(err)
	}
	if !hypersparse.Equal(got, wMem.Matrix) {
		t.Error("archived window differs from in-memory window")
	}
	// Leaves are time ordered because capture is sequential.
	for i, l := range ds.Leaves()[1:] {
		if l.Start.Before(ds.Leaves()[i].Start) {
			t.Errorf("archive leaf %d starts before leaf %d", i+1, i)
		}
	}
}

func TestCaptureToArchivePartialLeaf(t *testing.T) {
	pop := testPopulation(t, 1000)
	dir := t.TempDir()
	aw, _ := archive.Create(dir)
	tel := New(pop.Config().Darkspace, "partial-key", WithLeafSize(1000))
	valid, _, err := tel.CaptureToArchive(pop.TelescopeStream(4, time.Unix(0, 0)), 1500, aw)
	if err != nil {
		t.Fatal(err)
	}
	if valid != 1500 {
		t.Fatalf("valid = %d", valid)
	}
	if err := aw.Finish(); err != nil {
		t.Fatal(err)
	}
	ds, err := archive.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Leaves()) != 2 {
		t.Fatalf("leaves = %d, want 2 (one full + one partial)", len(ds.Leaves()))
	}
	if got := ds.Leaves()[0].Packets + ds.Leaves()[1].Packets; got != 1500 {
		t.Errorf("archived packets = %d", got)
	}
}
