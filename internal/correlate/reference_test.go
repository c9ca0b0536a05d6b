package correlate

// reference_test.go is the readable, map-based form of every
// measurement: per-row probes of the month tables, no interning, no
// sorted sets, no worker pool. It shares no code with the frozen kernel
// and is what TestFrozenMatchesReference and TestFitBandMatchesSweep
// diff that kernel against, at every worker count.

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/stats"
)

// bandOf extracts the snapshot's sources grouped into brightness bands.
func bandOf(snap Snapshot) map[int][]string {
	bands := make(map[int][]string)
	for _, row := range snap.Sources.RowKeys() {
		v, ok := snap.Sources.Get(row, "packets")
		if !ok || !v.Numeric || !(v.Num >= 1) || math.IsInf(v.Num, 1) {
			continue // a count that is not a finite number >= 1 is in no band
		}
		b := stats.BandIndex(v.Num)
		bands[b] = append(bands[b], row)
	}
	return bands
}

// PeakCorrelation computes the same-month correlation by brightness band
// (Figure 4). Bands with no sources are omitted.
func PeakCorrelation(snap Snapshot, month MonthData) []BandFraction {
	bands := bandOf(snap)
	out := make([]BandFraction, 0, len(bands))
	for b, rows := range bands {
		matched := 0
		for _, r := range rows {
			if month.Table.HasRow(r) {
				matched++
			}
		}
		lo, hi := stats.Wilson95(matched, len(rows))
		out = append(out, BandFraction{
			Band:     b,
			D:        stats.BandLow(b),
			Sources:  len(rows),
			Matched:  matched,
			Fraction: float64(matched) / float64(len(rows)),
			CILo:     lo,
			CIHi:     hi,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Band < out[j].Band })
	return out
}

// TemporalCorrelation computes the Figure 5/6 curve for one snapshot and
// one brightness band across all honeyfarm months. The returned series
// has one point per month, in month order. Returns an error if the band
// holds no sources.
func TemporalCorrelation(snap Snapshot, months []MonthData, band int) (Series, error) {
	rows := bandOf(snap)[band]
	if len(rows) == 0 {
		return Series{}, fmt.Errorf("correlate: snapshot %s has no sources in band 2^%d", snap.Label, band)
	}
	s := Series{
		Snapshot: snap.Label,
		Band:     band,
		Sources:  len(rows),
		Labels:   make([]string, len(months)),
		Dt:       make([]float64, len(months)),
		Fraction: make([]float64, len(months)),
	}
	for i, m := range months {
		matched := 0
		for _, r := range rows {
			if m.Table.HasRow(r) {
				matched++
			}
		}
		s.Labels[i] = m.Label
		s.Dt[i] = float64(m.Month) - snap.Month
		s.Fraction[i] = float64(matched) / float64(len(rows))
	}
	return s, nil
}

// FitSweep computes the modified-Cauchy fit for every band of the
// snapshot that holds at least minSources sources, in ascending band
// order (Figures 7 and 8's per-degree parameter curves).
func FitSweep(snap Snapshot, months []MonthData, minSources int) []BandFit {
	bands := bandOf(snap)
	var keys []int
	for b, rows := range bands {
		if len(rows) >= minSources {
			keys = append(keys, b)
		}
	}
	sort.Ints(keys)
	out := make([]BandFit, 0, len(keys))
	for _, b := range keys {
		series, err := TemporalCorrelation(snap, months, b)
		if err != nil {
			continue
		}
		fit := series.Fit()
		mc := fit.Model.(stats.ModifiedCauchy)
		out = append(out, BandFit{
			Snapshot: snap.Label,
			Band:     b,
			D:        stats.BandLow(b),
			Sources:  series.Sources,
			Alpha:    mc.Alpha,
			Beta:     mc.Beta,
			Drop:     mc.OneMonthDrop(),
			Residual: fit.Residual,
		})
	}
	return out
}

// SameMonth returns the honeyfarm month coeval with the snapshot, or an
// error when absent.
func SameMonth(snap Snapshot, months []MonthData) (MonthData, error) {
	idx := int(math.Floor(snap.Month))
	for _, m := range months {
		if m.Month == idx {
			return m, nil
		}
	}
	return MonthData{}, fmt.Errorf("correlate: no honeyfarm month %d for snapshot %s", idx, snap.Label)
}
