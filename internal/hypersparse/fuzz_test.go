package hypersparse

import (
	"encoding/binary"
	"testing"
)

// FuzzBuilderDifferential feeds arbitrary triple streams through
// FromEntries, the packet-counting Accumulator and the pooled k-way
// merge and diffs them against the retained map-builder oracle,
// including the split-into-leaves path the engine exercises (summing the
// per-leaf matrices must equal building the whole stream at once) and
// rows shared by three or more leaves, which the merge sorts once they
// hold wideRow entries and heap-merges below that (the seeds hold one
// such row at wideRow-1 entries and at wideRow).
func FuzzBuilderDifferential(f *testing.F) {
	mk := func(triples ...uint32) []byte {
		b := make([]byte, 0, len(triples)*4)
		for _, t := range triples {
			b = binary.LittleEndian.AppendUint32(b, t)
		}
		return b
	}
	// oneRow is n entries of one row at distinct columns, 9 bytes each.
	oneRow := func(n int) []byte {
		b := make([]byte, 0, n*9)
		for i := 0; i < n; i++ {
			b = binary.LittleEndian.AppendUint32(b, 3)
			b = binary.LittleEndian.AppendUint32(b, 0x2C000000+uint32(i)*7)
			b = append(b, byte(i))
		}
		return b
	}
	f.Add([]byte{})
	f.Add(mk(0, 0, 1, 0, 0, 2))                                  // duplicate summing
	f.Add(mk(0xFFFFFFFF, 0xFFFFFFFF, 3, 0, 0xFFFFFFFF, 1))       // extreme ids
	f.Add(mk(7, 9, 1, 7, 10, 2, 8, 1, 3, 7, 9, 4, 1, 1, 1))      // mixed rows
	f.Add(mk(0x2C000001, 5, 1, 0x2C000002, 5, 1, 0x2C000001, 5)) // truncated tail
	f.Add(oneRow(wideRow - 1))                                   // shared row, heap-merged
	f.Add(oneRow(wideRow))                                       // shared row, sorted

	f.Fuzz(func(t *testing.T, data []byte) {
		// Every 9 bytes: row(4) col(4) val(1, kept nonzero and small so
		// float addition is exact and order-independent).
		n := len(data) / 9
		if n > 4096 {
			n = 4096
		}
		entries := make([]Entry, n)
		units := make([]Entry, n)
		for i := 0; i < n; i++ {
			d := data[i*9:]
			entries[i] = Entry{
				Row: binary.LittleEndian.Uint32(d),
				Col: binary.LittleEndian.Uint32(d[4:]),
				Val: float64(d[8]%16 + 1),
			}
			units[i] = Entry{Row: entries[i].Row, Col: entries[i].Col, Val: 1}
		}
		want := refBuild(entries)
		if got := FromEntries(entries); !Equal(got, want) {
			t.Fatalf("radix build diverges from map oracle on %d entries", n)
		}
		// Unit adds through the Accumulator count packets: its window
		// equals the build of the same cells at value 1.
		acc := NewAccumulator(1 + n%13)
		for _, e := range units {
			acc.Add(e.Row, e.Col)
		}
		if got := acc.Finish(); !Equal(got, FromEntries(units)) {
			t.Fatalf("Accumulator over %d packets diverges from the unit build", n)
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
		// Fold the rows into three and deal the entries round-robin to
		// three to seven leaves: each shared row spans at least three.
		shared := make([]Entry, n)
		for i, e := range entries {
			shared[i] = Entry{Row: e.Row % 3, Col: e.Col, Val: e.Val}
		}
		k := 3 + n%5
		dealt := make([][]Entry, k)
		for i, e := range shared {
			dealt[i%k] = append(dealt[i%k], e)
		}
		leaves = leaves[:0]
		for _, es := range dealt {
			leaves = append(leaves, FromEntries(es))
		}
		want = refBuild(shared)
		if sumInto(new(mergeScratch), &dst, leaves); !Equal(&dst, want) {
			t.Fatalf("sumInto over %d leaves sharing rows diverges from whole build", k)
		}
	})
}
