package correlate

// snapshot_test.go holds NewSnapshot's banded set to the source table
// of the same rows: both freeze to the same bands, and those are the
// map-based reference's.

import (
	"encoding/binary"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/assoc"
	"repro/internal/ipaddr"
)

// FuzzNewSnapshot: for any (address, packets) list — any order, any
// float64 count, NaN, infinities and counts below 1 included — the set
// form freezes to the bands the table form of the same rows freezes to,
// each band the sorted addresses bandOf puts in it, and the caller's
// slices are left as they were. A row is 12 bytes, the address and the
// count's bits; a source table holds one row per source, so an address
// given again is skipped.
func FuzzNewSnapshot(f *testing.F) {
	row := func(a uint32, p float64) []byte {
		return binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint32(nil, a), math.Float64bits(p))
	}
	f.Add([]byte{})
	f.Add(slices.Concat(row(0x0a000204, 1), row(0x09000204, 3), row(0x0a000205, 2), row(0x0a000204, 9)))
	f.Add(slices.Concat(row(1, 0.5), row(2, -4), row(3, math.NaN()), row(4, math.Inf(1)), row(5, 1e300), row(6, 0x1p32)))
	f.Add(slices.Concat(row(0xffffffff, 255.9), row(0, 256), row(7, 4096), row(8, 1), row(9, 1.999999)))
	f.Fuzz(func(t *testing.T, raw []byte) {
		var addrs []ipaddr.Addr
		var packets []float64
		table := assoc.New()
		for ; len(raw) >= 12; raw = raw[12:] {
			a := ipaddr.Addr(binary.BigEndian.Uint32(raw))
			p := math.Float64frombits(binary.BigEndian.Uint64(raw[4:]))
			if table.HasRow(a.String()) {
				continue
			}
			table.Set(a.String(), "packets", assoc.Num(p))
			addrs = append(addrs, a)
			packets = append(packets, p)
		}
		givenAddrs, givenPackets := slices.Clone(addrs), slices.Clone(packets)

		set := Freeze(Study{Snapshots: []Snapshot{NewSnapshot("s", 2.5, 64, addrs, packets)}}, 1)
		tabled := Snapshot{Label: "s", Month: 2.5, NV: 64, Sources: table}
		if tab := Freeze(Study{Snapshots: []Snapshot{tabled}}, 1); !reflect.DeepEqual(set, tab) {
			t.Fatalf("set form freezes to %+v, table form to %+v", set.snaps, tab.snaps)
		}
		want := bandOf(tabled)
		bands := set.snaps[0].bands
		if len(bands) != len(want) {
			t.Fatalf("%d bands, reference %d", len(bands), len(want))
		}
		for _, b := range bands {
			var ids []uint32
			for _, key := range want[b.band] {
				a, err := ipaddr.Parse(key)
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, uint32(a))
			}
			slices.Sort(ids)
			if !slices.Equal(b.ids, ids) {
				t.Fatalf("band %d holds %v, reference %v", b.band, b.ids, ids)
			}
		}
		sameBits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
		if !slices.Equal(addrs, givenAddrs) || !slices.EqualFunc(packets, givenPackets, sameBits) {
			t.Fatalf("NewSnapshot rewrote its arguments")
		}
	})
}
