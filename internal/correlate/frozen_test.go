package correlate

// frozen_test.go holds the sorted-key kernel to the map-based reference
// (reference_test.go): identical artifacts on every figure, zero
// allocations at steady state, and a property test on the merge
// intersection.

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/assoc"
	"repro/internal/ipaddr"
	"repro/internal/stats"
	"repro/internal/testkit"
)

// frozenFixture is a study with several bands, partial overlaps, and a
// non-integer snapshot month — enough structure to exercise every
// kernel path.
func frozenFixture() Study {
	truth := stats.ModifiedCauchy{Alpha: 1, Beta: 3}
	return synthStudy([]int{0, 2, 4, 8, 12}, 120, 5.5, 15, func(b int, dt float64) float64 {
		return 0.9 * truth.Eval(dt) * float64(b+1) / 13.0
	})
}

// orderFixture is a study whose addresses sort one way as text and
// another as numbers (9.0.2.4 < 10.0.2.4 but "10.0.2.4" < "9.0.2.4";
// 1.0.2.4 < 1.0.2.40 < 1.0.2.255 but "1.0.2.255" < "1.0.2.4"), every
// table filled in a shuffled order, with sources spread over five bands
// and each month holding a different part of them.
func orderFixture() Study {
	rng := rand.New(rand.NewSource(3))
	var addrs []string
	for _, hi := range []int{1, 9, 10, 99, 100, 255} {
		for mid := 0; mid < 5; mid++ {
			for _, lo := range []int{0, 4, 40, 5, 50, 255, 25} {
				addrs = append(addrs, fmt.Sprintf("%d.%d.2.%d", hi, mid, lo))
			}
		}
	}
	bands := []int{0, 2, 4, 8, 12}
	snap := Snapshot{Label: "order", Month: 5.5, NV: 1 << 20, Sources: assoc.New()}
	for _, j := range rng.Perm(len(addrs)) {
		snap.Sources.Set(addrs[j], "packets", assoc.Num(stats.BandLow(bands[j*7%len(bands)])))
	}
	study := Study{Snapshots: []Snapshot{snap}}
	for m := 0; m < 15; m++ {
		md := MonthData{Label: fmt.Sprintf("m%02d", m), Month: m, Table: assoc.New()}
		for _, j := range rng.Perm(len(addrs)) {
			if (j*31+m*17)%(m%4+2) != 0 {
				md.Table.Set(addrs[j], "seen", assoc.Num(1))
			}
		}
		study.Months = append(study.Months, md)
	}
	return study
}

// TestFrozenMatchesReference diffs the frozen kernel against the
// map-based reference on every artifact, at every worker count the
// build can be asked for: zero (GOMAXPROCS), the caller alone, odd
// counts, and more workers than tables; on the small synthetic study
// and on orderFixture. IDs are internal; the comparison is on the
// measurements.
func TestFrozenMatchesReference(t *testing.T) {
	fixtures := []Study{frozenFixture(), orderFixture()}
	for _, workers := range []int{0, 1, 2, 3, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			for _, study := range fixtures {
				testFrozenMatchesReference(t, study, workers)
			}
		})
	}
}

func testFrozenMatchesReference(t *testing.T, study Study, workers int) {
	f := Freeze(study, workers)
	if len(f.months) != len(study.Months) || f.Snapshots() != len(study.Snapshots) {
		t.Fatalf("frozen shape %d/%d, want %d/%d",
			len(f.months), f.Snapshots(), len(study.Months), len(study.Snapshots))
	}

	for si, snap := range study.Snapshots {
		// Figure 4: same-month peak correlation.
		month, err := SameMonth(snap, study.Months)
		if err != nil {
			t.Fatal(err)
		}
		mi, err := f.SameMonthIndex(si)
		if err != nil {
			t.Fatal(err)
		}
		if study.Months[mi].Month != month.Month {
			t.Fatalf("SameMonthIndex = %d (month %d), want month %d", mi, study.Months[mi].Month, month.Month)
		}
		want := PeakCorrelation(snap, month)
		got := f.PeakCorrelation(si, mi)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("PeakCorrelation differs:\nfrozen %+v\nmap    %+v", got, want)
		}

		// Figures 5/6: every populated band plus one absent band.
		bands := append(f.Bands(si), 30)
		for _, b := range bands {
			wantS, wantErr := TemporalCorrelation(snap, study.Months, b)
			gotS, gotErr := f.Temporal(si, b)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("band %d: error mismatch: frozen %v, map %v", b, gotErr, wantErr)
			}
			if wantErr != nil {
				if gotErr.Error() != wantErr.Error() {
					t.Errorf("band %d: error text %q vs %q", b, gotErr, wantErr)
				}
				continue
			}
			if !reflect.DeepEqual(gotS, wantS) {
				t.Errorf("band %d: Temporal differs:\nfrozen %+v\nmap    %+v", b, gotS, wantS)
			}
		}

		// Figures 7/8: the fit sweep.
		if got, want := sweep(t, f, si, 10), FitSweep(snap, study.Months, 10); !reflect.DeepEqual(got, want) {
			t.Errorf("FitSweep differs:\nfrozen %+v\nmap    %+v", got, want)
		}
	}
}

// TestFitBandMatchesSweep pins the decomposition the report graph's
// fit fan-out relies on: SweepBands lists exactly the bands the
// map-based reference sweep fits, and FitBand reproduces each of its
// entries bit-for-bit — so jobs assembled in SweepBands order are
// byte-identical to that sweep at any worker count.
func TestFitBandMatchesSweep(t *testing.T) {
	study := frozenFixture()
	f := Freeze(study, 0)
	for si, snap := range study.Snapshots {
		for _, min := range []int{1, 10, 50} {
			want := FitSweep(snap, study.Months, min)
			got := sweep(t, f, si, min)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("snapshot %d min=%d: FitBand assembly differs:\njobs  %+v\nsweep %+v", si, min, got, want)
			}
		}
	}
	if _, ok := f.FitBand(0, 30); ok {
		t.Error("FitBand ok on an empty band")
	}
}

func TestFrozenSameMonthMissing(t *testing.T) {
	study := frozenFixture()
	study.Snapshots[0].Month = 99
	f := Freeze(study, 1)
	if _, err := f.SameMonthIndex(0); err == nil || !strings.Contains(err.Error(), "no honeyfarm month") {
		t.Errorf("missing month: err = %v", err)
	}
}

// TestFreezeRefusesNonAddressKey: a row key that is not a dotted-quad
// address has no ID, and the panic names the table and the key.
func TestFreezeRefusesNonAddressKey(t *testing.T) {
	for _, c := range []struct {
		table, key string
		mutate     func(Study, string)
	}{
		{"m03", "host-a", func(s Study, key string) { s.Months[3].Table.Set(key, "seen", assoc.Num(1)) }},
		{"synth", "7.999.0.1", func(s Study, key string) {
			s.Snapshots[0].Sources.Set(key, "packets", assoc.Num(stats.BandLow(4)))
		}},
		{"m00", "01.2.3.4", func(s Study, key string) { s.Months[0].Table.Set(key, "seen", assoc.Num(1)) }},
	} {
		study := frozenFixture()
		c.mutate(study, c.key)
		for _, workers := range []int{1, 4} {
			msg := func() (msg string) {
				defer func() { msg = fmt.Sprint(recover()) }()
				Freeze(study, workers)
				return ""
			}()
			if !strings.Contains(msg, "table "+c.table) || !strings.Contains(msg, fmt.Sprintf("%q", c.key)) {
				t.Errorf("workers=%d, key %q in %s: panic %q, want one naming the table and the key",
					workers, c.key, c.table, msg)
			}
		}
	}
}

// batchStudy is a study in study_batch's shape and in its disorder:
// months and snapshots whose rows are random addresses, each table
// filled by Set in random order so that no sorted-key cache exists,
// and snapshot sources spread over bands 0 to 9.
func batchStudy(months, monthRows, snaps, snapRows int) Study {
	rng := rand.New(rand.NewSource(11))
	addrs := make([]string, 2*monthRows)
	for i := range addrs {
		addrs[i] = ipaddr.Addr(rng.Uint32()).String()
	}
	var study Study
	for m := 0; m < months; m++ {
		md := MonthData{Label: fmt.Sprintf("m%02d", m), Month: m, Table: assoc.New()}
		for _, j := range rng.Perm(len(addrs))[:monthRows] {
			md.Table.Set(addrs[j], "seen", assoc.Num(1))
		}
		study.Months = append(study.Months, md)
	}
	for s := 0; s < snaps; s++ {
		snap := Snapshot{Label: fmt.Sprintf("s%d", s), Month: float64(s) + 0.5, NV: 1 << 20, Sources: assoc.New()}
		for _, j := range rng.Perm(len(addrs))[:snapRows] {
			snap.Sources.Set(addrs[j], "packets", assoc.Num(stats.BandLow(rng.Intn(10))))
		}
		study.Snapshots = append(study.Snapshots, snap)
	}
	return study
}

// TestFreezeAllocsPerTable: Freeze allocates a fixed number of times per
// table it freezes, however many keys the tables hold.
func TestFreezeAllocsPerTable(t *testing.T) {
	if testkit.RaceEnabled {
		t.Skip("allocation accounting is perturbed under the race detector")
	}
	const months, snaps, perTable = 4, 2, 5
	var allocs []float64
	for _, rows := range []int{100, 2000} {
		study := batchStudy(months, rows, snaps, rows/3)
		allocs = append(allocs, testing.AllocsPerRun(10, func() { Freeze(study, 1) }))
	}
	t.Logf("Freeze allocations at 100 and 2000 rows a table: %v", allocs)
	if allocs[1] != allocs[0] {
		t.Errorf("Freeze allocates %v times at 100 rows a table and %v at 2000, want no growth with the keys", allocs[0], allocs[1])
	}
	if max := float64(perTable*(months+snaps) + perTable); allocs[1] > max {
		t.Errorf("Freeze allocates %v times for %d tables, want <= %v", allocs[1], months+snaps, max)
	}
}

// TestFrozenKernelsAllocFree is the steady-state allocation gate for the
// Figure 4-8 inner loops: once the Into destinations are warm, peak and
// temporal measurements allocate nothing.
func TestFrozenKernelsAllocFree(t *testing.T) {
	if testkit.RaceEnabled {
		t.Skip("allocation accounting is perturbed under the race detector")
	}
	study := frozenFixture()
	f := Freeze(study, 1)
	mi, err := f.SameMonthIndex(0)
	if err != nil {
		t.Fatal(err)
	}

	peak := f.PeakCorrelation(0, mi) // warm capacity
	if n := testing.AllocsPerRun(100, func() {
		peak = f.PeakInto(peak, 0, mi)
	}); n != 0 {
		t.Errorf("PeakInto allocates %.1f/op at steady state, want 0", n)
	}

	var s Series
	band := f.Bands(0)[len(f.Bands(0))-1]
	if err := f.TemporalInto(&s, 0, band); err != nil { // warm capacity
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := f.TemporalInto(&s, 0, band); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("TemporalInto allocates %.1f/op at steady state, want 0", n)
	}
}

// TestCountIntersectProperty diffs the merge intersection against a
// map-based oracle on random sorted sets.
func TestCountIntersectProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		a := randomIDSet(rng, rng.Intn(200))
		b := randomIDSet(rng, rng.Intn(200))
		in := make(map[uint32]bool, len(a))
		for _, x := range a {
			in[x] = true
		}
		want := 0
		for _, x := range b {
			if in[x] {
				want++
			}
		}
		if got := countIntersect(a, b); got != want {
			t.Fatalf("trial %d: countIntersect = %d, want %d (a=%v b=%v)", trial, got, want, a, b)
		}
	}
}

func randomIDSet(rng *rand.Rand, n int) []uint32 {
	seen := make(map[uint32]bool, n)
	out := make([]uint32, 0, n)
	for len(out) < n {
		v := uint32(rng.Intn(300))
		if seen[v] {
			continue
		}
		seen[v] = true
		out = append(out, v)
	}
	slices.Sort(out)
	return out
}

// BenchmarkFreeze measures the one-time freeze of a study, on the
// caller's goroutine alone and at full fan-out: the small fixture, and
// a study in study_batch's shape (15 months of 15 000 rows, 5 snapshots
// of 4 800, about 250 000 keys) built in random order.
func BenchmarkFreeze(b *testing.B) {
	for _, c := range []struct {
		name  string
		study Study
	}{
		{"fixture", frozenFixture()},
		{"batch", batchStudy(15, 15000, 5, 4800)},
	} {
		for _, workers := range []int{1, 0} {
			b.Run(fmt.Sprintf("%s/workers=%d", c.name, workers), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					forgetRowOrder(c.study)
					b.StartTimer()
					Freeze(c.study, workers)
				}
			})
		}
	}
}

// forgetRowOrder drops every table's cached sorted row keys, as a table
// built in random order has none: one row comes and goes.
func forgetRowOrder(study Study) {
	tables := make([]*assoc.Assoc, 0, len(study.Months)+len(study.Snapshots))
	for _, m := range study.Months {
		tables = append(tables, m.Table)
	}
	for _, s := range study.Snapshots {
		tables = append(tables, s.Sources)
	}
	for _, t := range tables {
		t.Set("forget", "c", assoc.Num(1))
		t.Delete("forget", "c")
	}
}

// BenchmarkCorrelatePeak measures the Figure 4 kernel at steady state.
func BenchmarkCorrelatePeak(b *testing.B) {
	f := Freeze(frozenFixture(), 1)
	mi, err := f.SameMonthIndex(0)
	if err != nil {
		b.Fatal(err)
	}
	dst := f.PeakCorrelation(0, mi)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = f.PeakInto(dst, 0, mi)
	}
}

// BenchmarkCorrelateTemporal measures the Figure 5/6 kernel at steady
// state.
func BenchmarkCorrelateTemporal(b *testing.B) {
	f := Freeze(frozenFixture(), 1)
	band := f.Bands(0)[len(f.Bands(0))-1]
	var s Series
	if err := f.TemporalInto(&s, 0, band); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.TemporalInto(&s, 0, band); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCorrelateTemporalMap is the map-based reference, for the
// speedup comparison in benchmark output.
func BenchmarkCorrelateTemporalMap(b *testing.B) {
	study := frozenFixture()
	bands := Freeze(study, 1).Bands(0)
	band := bands[len(bands)-1]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TemporalCorrelation(study.Snapshots[0], study.Months, band); err != nil {
			b.Fatal(err)
		}
	}
}
