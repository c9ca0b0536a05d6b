package hypersparse

import (
	"encoding/binary"
	"testing"
)

// FuzzBuilderDifferential feeds arbitrary triple streams through the
// radix builder and the pooled k-way merge and diffs both against the
// retained map-builder oracle, including the split-into-leaves path the
// engine exercises (summing the per-leaf matrices must equal building
// the whole stream at once).
func FuzzBuilderDifferential(f *testing.F) {
	mk := func(triples ...uint32) []byte {
		b := make([]byte, 0, len(triples)*4)
		for _, t := range triples {
			b = binary.LittleEndian.AppendUint32(b, t)
		}
		return b
	}
	f.Add([]byte{})
	f.Add(mk(0, 0, 1, 0, 0, 2))                                  // duplicate summing
	f.Add(mk(0xFFFFFFFF, 0xFFFFFFFF, 3, 0, 0xFFFFFFFF, 1))       // extreme ids
	f.Add(mk(7, 9, 1, 7, 10, 2, 8, 1, 3, 7, 9, 4, 1, 1, 1))      // mixed rows
	f.Add(mk(0x2C000001, 5, 1, 0x2C000002, 5, 1, 0x2C000001, 5)) // truncated tail

	f.Fuzz(func(t *testing.T, data []byte) {
		// Every 9 bytes: row(4) col(4) val(1, kept nonzero and small so
		// float addition is exact and order-independent).
		n := len(data) / 9
		if n > 4096 {
			n = 4096
		}
		entries := make([]Entry, n)
		for i := 0; i < n; i++ {
			d := data[i*9:]
			entries[i] = Entry{
				Row: binary.LittleEndian.Uint32(d),
				Col: binary.LittleEndian.Uint32(d[4:]),
				Val: float64(d[8]%16 + 1),
			}
		}
		want := refBuild(entries)
		if got := FromEntries(entries); !Equal(got, want) {
			t.Fatalf("radix build diverges from map oracle on %d entries", n)
		}
		// Split into ragged leaves and merge: must equal the whole build.
		var leaves []*Matrix
		for lo := 0; lo < n; {
			hi := lo + 1 + (lo % 7)
			if hi > n {
				hi = n
			}
			leaves = append(leaves, FromEntries(entries[lo:hi]))
			lo = hi
		}
		var dst Matrix
		if sumInto(new(mergeScratch), &dst, leaves); !Equal(&dst, want) {
			t.Fatalf("sumInto over %d leaves diverges from whole build", len(leaves))
		}
		if got := HierSum(leaves, 3); !Equal(got, want) {
			t.Fatalf("HierSum over %d leaves diverges from whole build", len(leaves))
		}
	})
}
