package correlate

// frozen.go is the sorted-set correlation kernel: a Study compiled once
// into sorted sets of source addresses so every Figure 4-8 measurement
// is a linear sorted-merge intersection instead of per-row map probes.
// The paper's correlation is pure set arithmetic — |telescope band ∩
// honeyfarm month| — and on a frozen study that arithmetic runs
// allocation-free: each month table and each snapshot brightness band
// is one sorted []uint32 of the addresses its row keys spell (Freeze,
// freeze.go), and a two-pointer merge counts the overlap.
//
// The readable map-based form of every measurement lives in
// reference_test.go; TestFrozenMatchesReference diffs the two on every
// artifact.

import (
	"fmt"
	"math"

	"repro/internal/stats"
)

// Frozen is an immutable, interned compilation of a Study. Build one
// with Freeze (freeze.go) after the study's tables stop changing; all
// methods are safe for concurrent use.
type Frozen struct {
	months []frozenMonth
	snaps  []frozenSnapshot
}

type frozenMonth struct {
	label string
	month int
	ids   []uint32 // sorted interned row IDs of the month table
}

type frozenSnapshot struct {
	label string
	month float64
	nv    int
	bands []frozenBand // ascending band order, empty bands omitted
}

type frozenBand struct {
	band int
	ids  []uint32 // sorted interned row IDs of the band's sources
}

// countIntersect returns |a ∩ b| for two sorted ID sets by linear
// two-pointer merge — the entire inner loop of Figures 4-8.
func countIntersect(a, b []uint32) int {
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// bandIDs returns the snapshot's ID set for one band (nil when the band
// holds no sources).
func (s *frozenSnapshot) bandIDs(band int) []uint32 {
	for i := range s.bands {
		if s.bands[i].band == band {
			return s.bands[i].ids
		}
	}
	return nil
}

// Snapshots returns the number of frozen snapshots.
func (f *Frozen) Snapshots() int { return len(f.snaps) }

// Bands returns snapshot si's populated band indices in ascending
// order, in a fresh slice.
func (f *Frozen) Bands(si int) []int {
	out := make([]int, len(f.snaps[si].bands))
	for i := range f.snaps[si].bands {
		out[i] = f.snaps[si].bands[i].band
	}
	return out
}

// SameMonthIndex returns the index into the frozen months of the month
// coeval with snapshot si (the month holding floor(snapshot month)), or
// an error when the study has no such month.
func (f *Frozen) SameMonthIndex(si int) (int, error) {
	idx := int(math.Floor(f.snaps[si].month))
	for i := range f.months {
		if f.months[i].month == idx {
			return i, nil
		}
	}
	return -1, fmt.Errorf("correlate: no honeyfarm month %d for snapshot %s", idx, f.snaps[si].label)
}

// PeakInto computes snapshot si's same-month correlation by brightness
// band against month mi (Figure 4) into dst, reusing its capacity; it
// allocates nothing once dst is large enough. Bands with no sources are
// omitted.
func (f *Frozen) PeakInto(dst []BandFraction, si, mi int) []BandFraction {
	snap := &f.snaps[si]
	month := &f.months[mi]
	dst = dst[:0]
	for i := range snap.bands {
		b := &snap.bands[i]
		matched := countIntersect(b.ids, month.ids)
		lo, hi := stats.Wilson95(matched, len(b.ids))
		dst = append(dst, BandFraction{
			Band:     b.band,
			D:        stats.BandLow(b.band),
			Sources:  len(b.ids),
			Matched:  matched,
			Fraction: float64(matched) / float64(len(b.ids)),
			CILo:     lo,
			CIHi:     hi,
		})
	}
	return dst
}

// PeakCorrelation is PeakInto into a fresh slice.
func (f *Frozen) PeakCorrelation(si, mi int) []BandFraction {
	return f.PeakInto(make([]BandFraction, 0, len(f.snaps[si].bands)), si, mi)
}

// TemporalInto computes the Figure 5/6 temporal-correlation curve for
// snapshot si and one brightness band into s, reusing its slices; it
// allocates nothing once s's capacity covers the month count. The
// series has one point per month, in month order. Returns an error when
// the band holds no sources.
func (f *Frozen) TemporalInto(s *Series, si, band int) error {
	snap := &f.snaps[si]
	ids := snap.bandIDs(band)
	if len(ids) == 0 {
		return fmt.Errorf("correlate: snapshot %s has no sources in band 2^%d", snap.label, band)
	}
	n := len(f.months)
	s.Snapshot = snap.label
	s.Band = band
	s.Sources = len(ids)
	s.Labels = growStrings(s.Labels, n)
	s.Dt = growFloats(s.Dt, n)
	s.Fraction = growFloats(s.Fraction, n)
	for i := range f.months {
		m := &f.months[i]
		matched := countIntersect(ids, m.ids)
		s.Labels[i] = m.label
		s.Dt[i] = float64(m.month) - snap.month
		s.Fraction[i] = float64(matched) / float64(len(ids))
	}
	return nil
}

// Temporal is TemporalInto into a fresh Series.
func (f *Frozen) Temporal(si, band int) (Series, error) {
	var s Series
	if err := f.TemporalInto(&s, si, band); err != nil {
		return Series{}, err
	}
	return s, nil
}

// SweepBands returns the bands of snapshot si holding at least
// minSources sources, in ascending band order: the job list of Figures
// 7 and 8's per-degree parameter sweep. The report graph fans one
// FitBand job per (snapshot, band) across the worker pool and assembles
// the sweep in this deterministic order.
func (f *Frozen) SweepBands(si, minSources int) []int {
	snap := &f.snaps[si]
	out := make([]int, 0, len(snap.bands))
	for i := range snap.bands {
		if len(snap.bands[i].ids) >= minSources {
			out = append(out, snap.bands[i].band)
		}
	}
	return out
}

// FitBand computes the modified-Cauchy fit for one (snapshot, band)
// pair, with a private scratch series so any number of FitBand calls
// may run concurrently. It returns ok=false when the band holds no
// sources. TestFitBandMatchesSweep pins FitBand over SweepBands to the
// map-based reference sweep.
func (f *Frozen) FitBand(si, band int) (BandFit, bool) {
	snap := &f.snaps[si]
	var s Series
	if err := f.TemporalInto(&s, si, band); err != nil {
		return BandFit{}, false
	}
	fit := s.Fit()
	mc := fit.Model.(stats.ModifiedCauchy)
	return BandFit{
		Snapshot: snap.label,
		Band:     band,
		D:        stats.BandLow(band),
		Sources:  s.Sources,
		Alpha:    mc.Alpha,
		Beta:     mc.Beta,
		Drop:     mc.OneMonthDrop(),
		Residual: fit.Residual,
	}, true
}

func growStrings(s []string, n int) []string {
	if cap(s) < n {
		return make([]string, n)
	}
	return s[:n]
}

func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}
