// Package netquant computes the streaming network quantities of the
// paper's Table II from hypersparse traffic matrices: valid packets,
// unique links/sources/destinations, per-source and per-destination
// packet counts and fan-out/fan-in, and their maxima. Every quantity is
// permutation-invariant, so it is safe to compute on anonymized
// matrices.
package netquant

import (
	"fmt"

	"repro/internal/hypersparse"
	"repro/internal/stats"
)

// Quantities are the aggregate rows of Table II for one traffic matrix.
type Quantities struct {
	ValidPackets       float64 // 1^T A 1
	UniqueLinks        float64 // 1^T |A|0 1
	MaxLinkPackets     float64 // max(A)
	UniqueSources      float64 // 1^T |A 1|0
	MaxSourcePackets   float64 // max(A 1)
	MaxSourceFanout    float64 // max(|A|0 1)
	UniqueDestinations float64 // |1^T A|0 1
	MaxDestPackets     float64 // max(1^T A)
	MaxDestFanin       float64 // max(1^T |A|0)
}

// Compute evaluates all Table II aggregates through the fused
// hypersparse.Stats reduction: one row-major DCSR pass for the row-axis
// and whole-matrix quantities plus one pooled column scan, with no
// intermediate vector (previously this cost four independent reduction
// passes, two of them map-backed, each with copy-out allocations).
func Compute(m *hypersparse.Matrix) Quantities {
	s := m.Stats(0)
	return Quantities{
		ValidPackets:       s.Sum,
		UniqueLinks:        float64(s.NNZ),
		MaxLinkPackets:     s.MaxVal,
		UniqueSources:      float64(s.NRows),
		MaxSourcePackets:   s.MaxRowSum,
		MaxSourceFanout:    s.MaxRowDeg,
		UniqueDestinations: float64(s.NCols),
		MaxDestPackets:     s.MaxColSum,
		MaxDestFanin:       s.MaxColDeg,
	}
}

// Rows renders the quantities as (name, value) pairs in Table II order.
func (q Quantities) Rows() [][2]string {
	f := func(v float64) string { return fmt.Sprintf("%.0f", v) }
	return [][2]string{
		{"Valid packets NV", f(q.ValidPackets)},
		{"Unique links", f(q.UniqueLinks)},
		{"Max link packets (dmax)", f(q.MaxLinkPackets)},
		{"Unique sources", f(q.UniqueSources)},
		{"Max source packets (dmax)", f(q.MaxSourcePackets)},
		{"Max source fan-out (dmax)", f(q.MaxSourceFanout)},
		{"Unique destinations", f(q.UniqueDestinations)},
		{"Max destination packets (dmax)", f(q.MaxDestPackets)},
		{"Max destination fan-in (dmax)", f(q.MaxDestFanin)},
	}
}

// The degree-vector extractors below feed the Figure 3 distributions.
// Each performs exactly one allocation (the returned slice) and fills it
// from the fused row scan — no intermediate vector.

// sourcePacketValues returns the per-source packet counts (A·1 values),
// the degree variable of the paper's Figure 3.
func sourcePacketValues(m *hypersparse.Matrix) []float64 {
	out := make([]float64, 0, m.NRows())
	m.RowScan(func(_ uint32, sum float64, _ int) {
		out = append(out, sum)
	})
	return out
}

// SourcePacketDistribution bins the Figure 3 degree variable with the
// paper's binary logarithmic bins.
func SourcePacketDistribution(m *hypersparse.Matrix) *stats.Binned {
	return stats.LogBin(sourcePacketValues(m))
}
