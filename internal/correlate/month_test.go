package correlate

// month_test.go holds NewMonth to a sort-and-compact oracle, and a
// study whose months are NewMonth sets to the same study given as
// month tables.

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/ipaddr"
)

// FuzzNewMonth: for any address list — repeats, any order, empty —
// NewMonth's set is the list sorted and compacted, and the caller's
// list is left as it was.
func FuzzNewMonth(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{10, 0, 2, 4, 9, 0, 2, 4, 10, 0, 2, 4})
	f.Add([]byte{1, 0, 2, 255, 1, 0, 2, 4, 1, 0, 2, 40, 0, 0, 0, 0, 255, 255, 255, 255})
	f.Fuzz(func(t *testing.T, raw []byte) {
		addrs := make([]ipaddr.Addr, len(raw)/4)
		for i := range addrs {
			addrs[i] = ipaddr.Addr(binary.BigEndian.Uint32(raw[4*i:]))
		}
		given := slices.Clone(addrs)
		want := make([]uint32, len(addrs))
		for i, a := range addrs {
			want[i] = uint32(a)
		}
		slices.Sort(want)
		want = slices.Compact(want)

		md := NewMonth("m", 3, addrs)
		if !slices.Equal(md.set, want) {
			t.Fatalf("NewMonth(%v) set = %v, want %v", given, md.set, want)
		}
		if md.Sources() != len(want) || md.Label != "m" || md.Month != 3 || md.Table != nil {
			t.Fatalf("NewMonth = %q month %d, %d sources, table %v; want \"m\" month 3, %d sources, no table",
				md.Label, md.Month, md.Sources(), md.Table, len(want))
		}
		if !slices.Equal(addrs, given) {
			t.Fatalf("NewMonth rewrote its argument: %v, was %v", addrs, given)
		}
	})
}

// asSets is study with every month table replaced by the NewMonth set
// of its row addresses.
func asSets(t *testing.T, study Study) Study {
	t.Helper()
	out := Study{Snapshots: study.Snapshots}
	for _, m := range study.Months {
		var addrs []ipaddr.Addr
		for key := range m.Table.Rows() {
			a, err := ipaddr.Parse(key)
			if err != nil {
				t.Fatal(err)
			}
			addrs = append(addrs, a)
		}
		out.Months = append(out.Months, NewMonth(m.Label, m.Month, addrs))
	}
	return out
}

// figures renders every Figure 4-8 measurement of a frozen study: the
// peak correlation of each snapshot against every month, the temporal
// curve of each populated band and of one absent band, and the fit
// sweep.
func figures(t *testing.T, f *Frozen, months int) string {
	t.Helper()
	var out []any
	for si := range f.Snapshots() {
		for mi := range months {
			out = append(out, f.PeakCorrelation(si, mi))
		}
		for _, b := range append(f.Bands(si), 30) {
			s, err := f.Temporal(si, b)
			out = append(out, s, fmt.Sprint(err))
		}
		out = append(out, sweep(t, f, si, 10))
	}
	return fmt.Sprintf("%+v", out)
}

// TestFreezeMonthFormsAgree: a study whose months are tables and the
// same study whose months are NewMonth sets freeze to the same Figure
// 4-8 outputs at every worker count — the table form is what a
// store-backed study and an assembled-by-hand one hand the freeze.
func TestFreezeMonthFormsAgree(t *testing.T) {
	for name, tables := range map[string]Study{"synth": frozenFixture(), "order": orderFixture()} {
		sets := asSets(t, tables)
		for i, m := range sets.Months {
			if m.Sources() != tables.Months[i].Sources() {
				t.Fatalf("%s month %s: set form has %d sources, table form %d", name, m.Label, m.Sources(), tables.Months[i].Sources())
			}
		}
		for _, workers := range []int{1, 2, 4} {
			want := figures(t, Freeze(tables, workers), len(tables.Months))
			if got := figures(t, Freeze(sets, workers), len(sets.Months)); got != want {
				t.Errorf("%s, workers=%d: set-form figures differ from table-form ones:\nsets   %s\ntables %s", name, workers, got, want)
			}
		}
	}
}

// TestFreezeKeepsMonthSet: a NewMonth set is frozen as it is, not
// copied.
func TestFreezeKeepsMonthSet(t *testing.T) {
	md := NewMonth("m", 0, []ipaddr.Addr{3, 1, 2, 1})
	f := Freeze(Study{Months: []MonthData{md}}, 1)
	if got := f.months[0].ids; !reflect.DeepEqual(got, []uint32{1, 2, 3}) || &got[0] != &md.set[0] {
		t.Errorf("frozen month ids %v at %p, want the month's own set %v at %p", got, &got[0], md.set, &md.set[0])
	}
}
