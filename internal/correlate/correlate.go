// Package correlate implements the paper's primary contribution: the
// spatial and temporal correlation of sources seen by an Internet
// observatory (darkspace telescope) and an outpost (honeyfarm).
//
// Inputs are source-address sets: a telescope snapshot's sources banded
// by brightness [2^i, 2^(i+1)) of their packet counts (NewSnapshot) and
// each honeyfarm month's sources (NewMonth). A snapshot or month may
// instead be its D4M associative array (rows: source IP; a snapshot's
// column "packets"), which Freeze reduces to the same set. All
// measurements are fractions of telescope sources found in honeyfarm
// months, sliced by brightness band and by month offset.
//
// Every measurement runs on the frozen sorted-key kernel: Freeze a Study
// once (freeze.go), then each figure is an allocation-free sorted-merge
// intersection over interned row IDs (frozen.go).
package correlate

import (
	"math"
	"slices"

	"repro/internal/assoc"
	"repro/internal/ipaddr"
	"repro/internal/radix"
	"repro/internal/stats"
)

// Snapshot is one telescope constant-packet sample: its sources banded
// by brightness that NewSnapshot built or, with Sources, its D4M source
// table (column "packets"), which Freeze bands through NewSnapshot.
type Snapshot struct {
	Label   string  // e.g. "20200617-120000"
	Month   float64 // fractional month index within the study period
	NV      int     // window size in valid packets
	Sources *assoc.Assoc

	keys []uint64 // band<<32 | address, ascending; read when Sources is nil
}

// NewSnapshot builds a snapshot from its sources' addresses and packet
// counts, parallel slices that name each address once. A source goes in
// band stats.BandIndex(count) — one sort orders the sources by band
// and, within a band, by address — and a count that is not a finite
// number >= 1 puts it in none.
func NewSnapshot(label string, month float64, nv int, addrs []ipaddr.Addr, packets []float64) Snapshot {
	keys := make([]uint64, 0, len(addrs))
	for i, a := range addrs {
		if b := stats.BandIndex(packets[i]); b >= 0 {
			keys = append(keys, uint64(b)<<32|uint64(a))
		}
	}
	return Snapshot{Label: label, Month: month, NV: nv, keys: radix.Sort(keys, make([]uint64, len(keys)))}
}

// Addrs returns the addresses of the snapshot's banded sources, by band
// and then by address, in a fresh slice. Like Freeze, it panics on a
// source table row whose key is not a dotted quad.
func (s Snapshot) Addrs() []ipaddr.Addr {
	keys, err := s.bandKeys()
	if err != nil {
		panic(err)
	}
	out := make([]ipaddr.Addr, len(keys))
	for i, k := range keys {
		out[i] = ipaddr.Addr(uint32(k))
	}
	return out
}

// bandKeys returns NewSnapshot's set of s, building it from a source
// table's rows that hold a numeric packet count.
func (s *Snapshot) bandKeys() ([]uint64, error) {
	if s.Sources == nil {
		return s.keys, nil
	}
	n := s.Sources.NRows()
	addrs, packets := make([]ipaddr.Addr, 0, n), make([]float64, 0, n)
	for key, cells := range s.Sources.Rows() {
		a, err := ipaddr.Parse(key)
		if err != nil {
			return nil, notAddress(s.Label, key)
		}
		if v := cells.Get("packets"); v != nil && v.Val.Numeric {
			addrs, packets = append(addrs, a), append(packets, v.Val.Num)
		}
	}
	return NewSnapshot(s.Label, s.Month, s.NV, addrs, packets).keys, nil
}

// MonthData is one honeyfarm month: its D4M table or, with no Table,
// the sorted set of its source addresses that NewMonth built.
type MonthData struct {
	Label string // e.g. "2020-06"
	Month int    // month index within the study period
	Table *assoc.Assoc

	set []uint32 // ascending, unique; read when Table is nil
}

// NewMonth builds a month from its sources' addresses: addrs, which may
// repeat a source or be empty, is copied, sorted and deduplicated.
func NewMonth(label string, month int, addrs []ipaddr.Addr) MonthData {
	set := make([]uint32, len(addrs))
	for i, a := range addrs {
		set[i] = uint32(a)
	}
	set = radix.Sort(set, make([]uint32, len(set)))
	return MonthData{Label: label, Month: month, set: slices.Compact(set)}
}

// Sources counts the month's unique sources (Table I's GreyNoise column).
func (m MonthData) Sources() int {
	if m.Table == nil {
		return len(m.set)
	}
	return m.Table.NRows()
}

// Study holds everything the correlation analysis needs.
type Study struct {
	Snapshots []Snapshot
	Months    []MonthData
}

// BandFraction is one point of the Figure 4 curve: of the telescope
// sources with d in [2^Band, 2^(Band+1)), the fraction present in the
// honeyfarm table.
type BandFraction struct {
	Band     int
	D        float64 // band lower edge 2^Band
	Sources  int     // telescope sources in the band
	Matched  int     // of those, sources in the honeyfarm table
	Fraction float64 // Matched / Sources
	CILo     float64 // 95% Wilson interval low edge
	CIHi     float64 // 95% Wilson interval high edge
}

// PeakModel is the paper's empirical Figure 4 law:
// min(1, log2(d) / log2(sqrt(NV))).
func PeakModel(d float64, nv int) float64 {
	if d < 2 {
		d = 2
	}
	v := math.Log2(d) / math.Log2(math.Sqrt(float64(nv)))
	if v > 1 {
		return 1
	}
	return v
}

// Series is one temporal-correlation curve (Figures 5 and 6): the
// fraction of a snapshot's band-d sources found in each honeyfarm month.
type Series struct {
	Snapshot string
	Band     int
	Sources  int       // telescope sources in the band
	Labels   []string  // month labels
	Dt       []float64 // month - snapshot month
	Fraction []float64
}

// Fit fits the modified Cauchy model to the series using the paper's
// peak-normalized ‖·‖½ procedure.
func (s Series) Fit() stats.TemporalFit {
	return stats.FitModifiedCauchy(s.Dt, s.Fraction)
}

// FitAll fits all three model families (Figure 5's comparison).
func (s Series) FitAll() map[string]stats.TemporalFit {
	return stats.FitAllTemporal(s.Dt, s.Fraction)
}

// BandFit is one point of Figures 7 and 8: the fitted modified-Cauchy
// parameters for one snapshot and band.
type BandFit struct {
	Snapshot string
	Band     int
	D        float64 // band lower edge
	Sources  int
	Alpha    float64
	Beta     float64
	Drop     float64 // 1/(β+1), the one-month drop (Figure 8)
	Residual float64
}
