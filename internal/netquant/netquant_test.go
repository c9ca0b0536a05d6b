package netquant

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/hypersparse"
)

func randomMatrix(seed int64, n int) *hypersparse.Matrix {
	rng := rand.New(rand.NewSource(seed))
	es := make([]hypersparse.Entry, n)
	for i := range es {
		es[i] = hypersparse.Entry{
			Row: rng.Uint32() % 200,
			Col: rng.Uint32() % 200,
			Val: float64(1 + rng.Intn(8)),
		}
	}
	return hypersparse.FromEntries(es)
}

// bruteForce computes every Table II quantity from the raw triple list.
func bruteForce(m *hypersparse.Matrix) Quantities {
	type pair = [2]uint32
	cells := make(map[pair]float64)
	m.Iterate(func(e hypersparse.Entry) bool {
		cells[pair{e.Row, e.Col}] += e.Val
		return true
	})
	var q Quantities
	rowSum := make(map[uint32]float64)
	rowDeg := make(map[uint32]float64)
	colSum := make(map[uint32]float64)
	colDeg := make(map[uint32]float64)
	for k, v := range cells {
		q.ValidPackets += v
		q.UniqueLinks++
		if v > q.MaxLinkPackets {
			q.MaxLinkPackets = v
		}
		rowSum[k[0]] += v
		rowDeg[k[0]]++
		colSum[k[1]] += v
		colDeg[k[1]]++
	}
	q.UniqueSources = float64(len(rowSum))
	q.UniqueDestinations = float64(len(colSum))
	for _, v := range rowSum {
		if v > q.MaxSourcePackets {
			q.MaxSourcePackets = v
		}
	}
	for _, v := range rowDeg {
		if v > q.MaxSourceFanout {
			q.MaxSourceFanout = v
		}
	}
	for _, v := range colSum {
		if v > q.MaxDestPackets {
			q.MaxDestPackets = v
		}
	}
	for _, v := range colDeg {
		if v > q.MaxDestFanin {
			q.MaxDestFanin = v
		}
	}
	return q
}

func TestComputeMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		m := randomMatrix(seed, 2000)
		return Compute(m) == bruteForce(m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestComputeEmpty(t *testing.T) {
	var m hypersparse.Matrix
	q := Compute(&m)
	if q != (Quantities{}) {
		t.Errorf("empty matrix quantities = %+v", q)
	}
}

func TestComputeKnownMatrix(t *testing.T) {
	// 3 packets 1->1, 1 packet 1->2, 2 packets 2->1.
	m := hypersparse.FromEntries([]hypersparse.Entry{
		{Row: 1, Col: 1, Val: 3}, {Row: 1, Col: 2, Val: 1}, {Row: 2, Col: 1, Val: 2},
	})
	q := Compute(m)
	want := Quantities{
		ValidPackets: 6, UniqueLinks: 3, MaxLinkPackets: 3,
		UniqueSources: 2, MaxSourcePackets: 4, MaxSourceFanout: 2,
		UniqueDestinations: 2, MaxDestPackets: 5, MaxDestFanin: 2,
	}
	if q != want {
		t.Errorf("Compute = %+v, want %+v", q, want)
	}
}

// TestPermutationInvariance is Table II's defining property: every
// aggregate is unchanged by relabeling indices (anonymization).
func TestPermutationInvariance(t *testing.T) {
	f := func(seed int64) bool {
		m := randomMatrix(seed, 1500)
		pm := m.PermuteFunc(func(x uint32) uint32 { return x*2654435761 + 97 })
		return Compute(m) == Compute(pm)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestTransposeSwapsSourceDest(t *testing.T) {
	m := randomMatrix(11, 1000)
	swapped := m.Entries()
	for i, e := range swapped {
		swapped[i].Row, swapped[i].Col = e.Col, e.Row
	}
	q, qt := Compute(m), Compute(hypersparse.FromEntries(swapped))
	if q.UniqueSources != qt.UniqueDestinations ||
		q.UniqueDestinations != qt.UniqueSources ||
		q.MaxSourcePackets != qt.MaxDestPackets ||
		q.MaxSourceFanout != qt.MaxDestFanin ||
		q.ValidPackets != qt.ValidPackets {
		t.Errorf("transpose did not swap roles:\n%+v\n%+v", q, qt)
	}
}

func TestValueExtractors(t *testing.T) {
	m := hypersparse.FromEntries([]hypersparse.Entry{
		{Row: 1, Col: 1, Val: 3}, {Row: 1, Col: 2, Val: 1}, {Row: 2, Col: 1, Val: 2},
	})
	sum := func(xs []float64) float64 {
		var s float64
		for _, x := range xs {
			s += x
		}
		return s
	}
	if got := sourcePacketValues(m); len(got) != 2 || sum(got) != 6 {
		t.Errorf("sourcePacketValues = %v", got)
	}
}

func TestSourcePacketDistribution(t *testing.T) {
	m := hypersparse.FromEntries([]hypersparse.Entry{
		{Row: 1, Col: 1, Val: 1}, // source 1: 1 packet -> bin 0
		{Row: 2, Col: 1, Val: 4}, // source 2: 4 packets -> bin 2
	})
	b := SourcePacketDistribution(m)
	if b.Total != 2 || b.Counts[0] != 1 || b.Counts[2] != 1 {
		t.Errorf("distribution = %+v", b)
	}
}

func TestRowsRendering(t *testing.T) {
	rows := Compute(randomMatrix(1, 100)).Rows()
	if len(rows) != 9 {
		t.Fatalf("Rows() has %d entries, want 9 (Table II)", len(rows))
	}
	if rows[0][0] != "Valid packets NV" {
		t.Errorf("first row = %v", rows[0])
	}
}

func BenchmarkCompute(b *testing.B) {
	m := randomMatrix(2, 1<<18)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Compute(m)
	}
}
