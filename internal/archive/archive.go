// Package archive implements the on-disk organization of telescope
// data: a directory of anonymized leaf matrices (one GBM file per
// 2^17-packet leaf in the paper's deployment at LBNL) plus a manifest,
// from which analysis windows are reconstructed by hierarchically
// summing leaves in parallel. This is the storage substrate that lets a
// window far larger than memory-resident packet buffers be assembled
// from archived pieces.
package archive

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/hypersparse"
	"repro/internal/pool"
)

const manifestName = "MANIFEST.tsv"

// LeafInfo describes one archived leaf matrix.
type LeafInfo struct {
	File    string // file name within the archive directory
	Packets int    // valid packets aggregated into the leaf
	Start   time.Time
	End     time.Time
}

// Writer appends leaf matrices to an archive directory.
type Writer struct {
	dir    string
	leaves []LeafInfo
}

// Create initializes (or opens for append) an archive directory.
func Create(dir string) (*Writer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Writer{dir: dir}, nil
}

// AppendLeaf stores one leaf matrix and records it in the pending
// manifest. Leaves are named leaf-NNNNN.gbm in append order.
func (w *Writer) AppendLeaf(m *hypersparse.Matrix, start, end time.Time) error {
	name := fmt.Sprintf("leaf-%05d.gbm", len(w.leaves))
	f, err := os.Create(filepath.Join(w.dir, name))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if _, err := m.WriteTo(bw); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	w.leaves = append(w.leaves, LeafInfo{
		File:    name,
		Packets: int(m.Sum()),
		Start:   start,
		End:     end,
	})
	return nil
}

// Leaves reports the number of appended leaves.
func (w *Writer) Leaves() int { return len(w.leaves) }

// Finish writes the manifest. The archive is unreadable until Finish
// succeeds.
func (w *Writer) Finish() error {
	f, err := os.Create(filepath.Join(w.dir, manifestName))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	for _, l := range w.leaves {
		fmt.Fprintf(bw, "%s\t%d\t%d\t%d\n", l.File, l.Packets, l.Start.UnixMicro(), l.End.UnixMicro())
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Dataset is a readable archive.
type Dataset struct {
	dir    string
	leaves []LeafInfo
}

// Open reads an archive's manifest.
func Open(dir string) (*Dataset, error) {
	f, err := os.Open(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, fmt.Errorf("archive: opening manifest: %w", err)
	}
	defer f.Close()
	d := &Dataset{dir: dir}
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if text == "" {
			continue
		}
		parts := strings.Split(text, "\t")
		if len(parts) != 4 {
			return nil, fmt.Errorf("archive: manifest line %d malformed", line)
		}
		packets, err1 := strconv.Atoi(parts[1])
		startUs, err2 := strconv.ParseInt(parts[2], 10, 64)
		endUs, err3 := strconv.ParseInt(parts[3], 10, 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("archive: manifest line %d unparseable", line)
		}
		if strings.Contains(parts[0], "/") || strings.Contains(parts[0], "..") {
			return nil, fmt.Errorf("archive: manifest line %d has suspicious file name %q", line, parts[0])
		}
		d.leaves = append(d.leaves, LeafInfo{
			File:    parts[0],
			Packets: packets,
			Start:   time.UnixMicro(startUs).UTC(),
			End:     time.UnixMicro(endUs).UTC(),
		})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return d, nil
}

// Leaves returns the manifest entries in archive order.
func (d *Dataset) Leaves() []LeafInfo { return d.leaves }

// LoadLeaf reads one leaf matrix by index.
func (d *Dataset) LoadLeaf(i int) (*hypersparse.Matrix, error) {
	if i < 0 || i >= len(d.leaves) {
		return nil, fmt.Errorf("archive: leaf index %d out of range", i)
	}
	f, err := os.Open(filepath.Join(d.dir, d.leaves[i].File))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	m, err := hypersparse.ReadMatrix(f)
	if err != nil {
		return nil, fmt.Errorf("archive: leaf %s: %w", d.leaves[i].File, err)
	}
	if got := int(m.Sum()); got != d.leaves[i].Packets {
		return nil, fmt.Errorf("archive: leaf %s holds %d packets, manifest says %d",
			d.leaves[i].File, got, d.leaves[i].Packets)
	}
	return m, nil
}

// SumWindow loads leaves [from, to) on the shared worker pool and
// returns their hierarchical sum — the archive-side reconstruction of an
// analysis window. workers <= 0 uses GOMAXPROCS, as everywhere.
func (d *Dataset) SumWindow(from, to, workers int) (*hypersparse.Matrix, error) {
	if from < 0 || to > len(d.leaves) || from >= to {
		return nil, fmt.Errorf("archive: window [%d, %d) out of range (0..%d)", from, to, len(d.leaves))
	}
	leaves := make([]*hypersparse.Matrix, to-from)
	err := pool.Each(context.Background(), workers, len(leaves), func(_ context.Context, i int) (err error) {
		leaves[i], err = d.LoadLeaf(from + i)
		return err
	})
	if err != nil {
		return nil, err
	}
	return hypersparse.HierSum(leaves, workers), nil
}

// SumAll reconstructs the full archive window.
func (d *Dataset) SumAll(workers int) (*hypersparse.Matrix, error) {
	return d.SumWindow(0, len(d.leaves), workers)
}
