package correlate

// freeze.go compiles a Study into a Frozen over the repository's worker
// pool, one job per table. A row's ID is its source address: every row
// key of a study is a canonical dotted quad (both builders write it with
// ipaddr.Addr.AppendTo, and both fetches refuse anything else), so
// ipaddr.Parse maps it to its uint32 with no shared key space to build.
// A job walks its table's rows in map order, parses each key, and sorts
// the resulting set once; no job waits on another. The sort is
// radix.Sort, a linear pass a varying byte: on a study_batch-shaped study
// (BenchmarkFreeze/batch, 2 vCPU) slices.Sort's comparisons made the
// freeze about a third slower.
//
// Every Frozen artifact is a set cardinality (|band ∩ month| under one
// shared ID space), which does not care how keys were numbered or how
// many workers numbered them; TestFrozenMatchesReference diffs every
// artifact against the map-based reference at each worker count.

import (
	"context"
	"fmt"

	"repro/internal/ipaddr"
	"repro/internal/pool"
	"repro/internal/radix"
	"repro/internal/stats"
)

// Freeze reduces each month table to the sorted set of its row
// addresses and each snapshot to one sorted address set per brightness
// band, across up to workers goroutines (pool semantics: <= 0 picks
// GOMAXPROCS, 1 is the caller's goroutine). It keeps a NewMonth set,
// which is immutable, and reads tables without retaining them: later
// mutation of the study does not invalidate the Frozen.
//
// Every row key must be a canonical dotted quad, as ipaddr.Parse
// accepts; Freeze panics naming the table and the key on any other.
func Freeze(study Study, workers int) *Frozen {
	nm, ns := len(study.Months), len(study.Snapshots)
	f := &Frozen{
		months: make([]frozenMonth, nm),
		snaps:  make([]frozenSnapshot, ns),
	}
	// A job fails only on a key that is not an address; the pool's
	// first error comes back here, so the panic is the caller's.
	err := pool.Each(context.Background(), workers, nm+ns, func(_ context.Context, job int) (err error) {
		if job < nm {
			f.months[job], err = freezeMonth(&study.Months[job])
		} else {
			f.snaps[job-nm], err = freezeSnapshot(&study.Snapshots[job-nm])
		}
		return err
	})
	if err != nil {
		panic(err)
	}
	return f
}

// freezeMonth keeps a NewMonth set as it is and reduces a table to one.
func freezeMonth(m *MonthData) (frozenMonth, error) {
	if m.Table == nil {
		return frozenMonth{label: m.Label, month: m.Month, ids: m.set}, nil
	}
	ids := make([]uint32, 0, m.Table.NRows())
	for key := range m.Table.Rows() {
		a, err := ipaddr.Parse(key)
		if err != nil {
			return frozenMonth{}, notAddress(m.Label, key)
		}
		ids = append(ids, uint32(a))
	}
	return frozenMonth{label: m.Label, month: m.Month, ids: radix.Sort(ids, make([]uint32, len(ids)))}, nil
}

// freezeSnapshot keys each banded source by band above address, so one
// sort orders the sources by band and, within a band, by address; the
// bands are then consecutive runs of one ID slice.
func freezeSnapshot(s *Snapshot) (frozenSnapshot, error) {
	keyed := make([]uint64, 0, s.Sources.NRows())
	for key, cells := range s.Sources.Rows() {
		a, err := ipaddr.Parse(key)
		if err != nil {
			return frozenSnapshot{}, notAddress(s.Label, key)
		}
		v := cells.Get("packets")
		if v == nil || !v.Val.Numeric {
			continue
		}
		b := stats.BandIndex(v.Val.Num)
		if b < 0 {
			continue
		}
		keyed = append(keyed, uint64(b)<<32|uint64(a))
	}
	keyed = radix.Sort(keyed, make([]uint64, len(keyed)))
	ids := make([]uint32, len(keyed))
	fs := frozenSnapshot{label: s.Label, month: s.Month, nv: s.NV}
	for lo := 0; lo < len(keyed); {
		hi := lo
		for ; hi < len(keyed) && keyed[hi]>>32 == keyed[lo]>>32; hi++ {
			ids[hi] = uint32(keyed[hi])
		}
		fs.bands = append(fs.bands, frozenBand{band: int(keyed[lo] >> 32), ids: ids[lo:hi:hi]})
		lo = hi
	}
	return fs, nil
}

func notAddress(table, key string) error {
	return fmt.Errorf("correlate: table %s: row key %q is not a dotted-quad address", table, key)
}
