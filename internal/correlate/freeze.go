package correlate

// freeze.go compiles a Study into a Frozen over the repository's worker
// pool, one job per month or snapshot; no job waits on another. A
// source's ID is its address. Months and snapshots arrive as the sorted
// sets NewMonth and NewSnapshot build, which a job keeps or cuts into
// bands; a D4M table given instead is parsed into the same set first.
// The sets are sorted by radix.Sort: on a study_batch-shaped study
// (BenchmarkFreeze/batch, 2 vCPU) slices.Sort made the freeze a third
// slower.
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
)

// Freeze reduces each month to the sorted set of its source addresses
// and each snapshot to one sorted address set per brightness band,
// across up to workers goroutines (pool semantics: <= 0 picks
// GOMAXPROCS, 1 is the caller's goroutine). It keeps a NewMonth set,
// which is immutable, copies a NewSnapshot set's IDs and reads tables
// without retaining them: later mutation of the study does not
// invalidate the Frozen.
//
// Every table row key must be a canonical dotted quad, as ipaddr.Parse
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

// freezeSnapshot splits the snapshot's set into its bands: the set is
// ordered by band above address, so each band is one run of it.
func freezeSnapshot(s *Snapshot) (frozenSnapshot, error) {
	keys, err := s.bandKeys()
	if err != nil {
		return frozenSnapshot{}, err
	}
	ids := make([]uint32, len(keys))
	fs := frozenSnapshot{label: s.Label, month: s.Month, nv: s.NV}
	for lo := 0; lo < len(keys); {
		hi := lo
		for ; hi < len(keys) && keys[hi]>>32 == keys[lo]>>32; hi++ {
			ids[hi] = uint32(keys[hi])
		}
		fs.bands = append(fs.bands, frozenBand{band: int(keys[lo] >> 32), ids: ids[lo:hi:hi]})
		lo = hi
	}
	return fs, nil
}

func notAddress(table, key string) error {
	return fmt.Errorf("correlate: table %s: row key %q is not a dotted-quad address", table, key)
}
