package archive_test

import (
	"context"
	"os"
	"path/filepath"
	"repro/internal/archive"
	"testing"
	"time"

	"repro/internal/hypersparse"
	"repro/internal/radiation"
	"repro/internal/stats"
	"repro/internal/telescope"
)

// buildArchive captures a telescope stream into leaf matrices of
// leafSize packets and archives them, returning the directory and the
// directly-built full window for comparison.
func buildArchive(t *testing.T, leafSize, nLeaves int) (string, *hypersparse.Matrix) {
	t.Helper()
	cfg := radiation.DefaultConfig()
	cfg.NumSources = 3000
	cfg.ZM = stats.PaperZM(1 << 10)
	pop, err := radiation.NewPopulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tel := telescope.New(cfg.Darkspace, "archive-key", telescope.WithLeafSize(leafSize))

	dir := t.TempDir()
	w, err := archive.Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	st := pop.TelescopeStream(4, time.Unix(0, 0))
	var leaves []*hypersparse.Matrix
	for i := 0; i < nLeaves; i++ {
		win, err := tel.CaptureWindowEngine(context.Background(), st, leafSize, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if win.NV < leafSize {
			t.Fatalf("stream exhausted at leaf %d", i)
		}
		if err := w.AppendLeaf(win.Matrix, win.Start, win.End); err != nil {
			t.Fatal(err)
		}
		leaves = append(leaves, win.Matrix)
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	return dir, hypersparse.FlatSum(leaves)
}

func TestArchiveRoundTrip(t *testing.T) {
	dir, want := buildArchive(t, 512, 8)
	d, err := archive.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Leaves()) != 8 {
		t.Fatalf("leaves = %d", len(d.Leaves()))
	}
	packets := 0
	for _, l := range d.Leaves() {
		packets += l.Packets
	}
	if packets != 8*512 {
		t.Fatalf("total packets = %d", packets)
	}
	got, err := d.SumAll(4)
	if err != nil {
		t.Fatal(err)
	}
	if !hypersparse.Equal(got, want) {
		t.Error("archived window differs from directly-built window")
	}
}

func TestArchivePartialWindow(t *testing.T) {
	dir, _ := buildArchive(t, 256, 6)
	d, err := archive.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := d.SumWindow(2, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if int(sub.Sum()) != 3*256 {
		t.Errorf("partial window packets = %g, want %d", sub.Sum(), 3*256)
	}
	// Compare against individually-loaded leaves.
	var leaves []*hypersparse.Matrix
	for i := 2; i < 5; i++ {
		leaf, err := d.LoadLeaf(i)
		if err != nil {
			t.Fatal(err)
		}
		leaves = append(leaves, leaf)
	}
	if !hypersparse.Equal(sub, hypersparse.FlatSum(leaves)) {
		t.Error("partial window mismatch")
	}
}

func TestArchiveWindowBounds(t *testing.T) {
	dir, _ := buildArchive(t, 128, 3)
	d, _ := archive.Open(dir)
	for _, rng := range [][2]int{{-1, 2}, {0, 4}, {2, 2}, {3, 1}} {
		if _, err := d.SumWindow(rng[0], rng[1], 1); err == nil {
			t.Errorf("window %v accepted", rng)
		}
	}
	if _, err := d.LoadLeaf(99); err == nil {
		t.Error("out-of-range leaf accepted")
	}
}

func TestArchiveSpanAndOrder(t *testing.T) {
	dir, _ := buildArchive(t, 128, 4)
	d, _ := archive.Open(dir)
	// The manifest carries each leaf's capture interval; sequential
	// capture writes them in time order.
	leaves := d.Leaves()
	for i, l := range leaves {
		if !l.End.After(l.Start) {
			t.Errorf("leaf %d spans [%v, %v]: empty", i, l.Start, l.End)
		}
		if i > 0 && l.Start.Before(leaves[i-1].Start) {
			t.Errorf("leaf %d starts %v, before leaf %d's %v", i, l.Start, i-1, leaves[i-1].Start)
		}
	}
}

func TestOpenMissingManifest(t *testing.T) {
	if _, err := archive.Open(t.TempDir()); err == nil {
		t.Error("archive without manifest opened")
	}
}

func TestOpenRejectsMalformedManifest(t *testing.T) {
	cases := []string{
		"onlyonefield\n",
		"leaf.gbm\tnotanumber\t0\t0\n",
		"../escape.gbm\t1\t0\t0\n",
		"sub/dir.gbm\t1\t0\t0\n",
	}
	for _, c := range cases {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "MANIFEST.tsv"), []byte(c), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := archive.Open(dir); err == nil {
			t.Errorf("manifest %q accepted", c)
		}
	}
}

func TestLoadLeafDetectsTamperedFile(t *testing.T) {
	dir, _ := buildArchive(t, 256, 2)
	d, _ := archive.Open(dir)
	// Corrupt a byte mid-file.
	path := filepath.Join(dir, d.Leaves()[0].File)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := d.LoadLeaf(0); err == nil {
		t.Error("tampered leaf loaded without error")
	}
	if _, err := d.SumAll(2); err == nil {
		t.Error("SumAll ignored tampered leaf")
	}
}

func TestLoadLeafDetectsManifestMismatch(t *testing.T) {
	dir, _ := buildArchive(t, 256, 2)
	// Rewrite the manifest with a wrong packet count.
	d, _ := archive.Open(dir)
	leaf := d.Leaves()[0]
	manifest := leaf.File + "\t9999\t0\t0\n"
	if err := os.WriteFile(filepath.Join(dir, "MANIFEST.tsv"), []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}
	d2, err := archive.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d2.LoadLeaf(0); err == nil {
		t.Error("manifest/leaf packet mismatch not detected")
	}
}
