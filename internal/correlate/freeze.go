package correlate

// freeze.go compiles a Study into a Frozen over the repository's worker
// pool. Row keys are interned by rank — a key's ID is its position in
// the sorted union of every table's keys — which, unlike interning
// through one shared map in arrival order, decomposes:
//
//  1. Gather (parallel, one job per table): collect each month table's
//     row keys and each snapshot's band-filtered row keys. Assoc.RowKeys
//     is already sorted, so each unit's key list comes out sorted for
//     free.
//  2. Union (on the caller): pairwise-merge the sorted per-unit lists
//     into one global sorted unique key list. A key's ID is its rank in
//     this list.
//  3. Resolve (parallel, one job per table): walk each unit's sorted
//     keys against the global list with a linear two-pointer merge,
//     emitting interned IDs — ascending by construction, so no per-set
//     sort is needed.
//
// Every Frozen artifact is a set cardinality (|band ∩ month| under one
// shared ID space), which does not care how keys were numbered or how
// many workers numbered them; TestFrozenMatchesReference diffs every
// artifact against the map-based reference at each worker count.

import (
	"context"
	"sort"

	"repro/internal/pool"
	"repro/internal/stats"
)

// unitKeys is stage 1's output for one table: the unit's sorted row
// keys, plus (for snapshots) each key's brightness band.
type unitKeys struct {
	keys  []string
	bands []int // aligned with keys; nil for months
}

// Freeze interns every row key of the study into one uint32 ID space,
// reduces each month table to a sorted ID set, and computes each
// snapshot's brightness bands once, across up to workers goroutines
// (pool semantics: <= 0 picks GOMAXPROCS, 1 is the caller's goroutine).
// The input tables are read, never retained: later mutation of the
// study does not invalidate the Frozen (it describes the study as it
// was at freeze time).
func Freeze(study Study, workers int) *Frozen {
	nm, ns := len(study.Months), len(study.Snapshots)
	units := make([]unitKeys, nm+ns)

	// Stage 1: per-table key gather. Jobs never fail and the context is
	// never cancelled, so the pool errors are structurally nil.
	_ = pool.Each(context.Background(), workers, nm+ns, func(_ context.Context, job int) error {
		if job < nm {
			units[job] = unitKeys{keys: study.Months[job].Table.RowKeys()}
			return nil
		}
		snap := &study.Snapshots[job-nm]
		rows := snap.Sources.RowKeys()
		u := unitKeys{
			keys:  make([]string, 0, len(rows)),
			bands: make([]int, 0, len(rows)),
		}
		for _, row := range rows {
			v, ok := snap.Sources.Get(row, "packets")
			if !ok || !v.Numeric {
				continue
			}
			b := stats.BandIndex(v.Num)
			if b < 0 {
				continue
			}
			u.keys = append(u.keys, row)
			u.bands = append(u.bands, b)
		}
		units[job] = u
		return nil
	})

	// Stage 2: union the sorted unit lists into the global ID space by
	// binary merge reduction — O(total keys x log(tables)) comparisons,
	// no hashing.
	lists := make([][]string, 0, len(units))
	for i := range units {
		if len(units[i].keys) > 0 {
			lists = append(lists, units[i].keys)
		}
	}
	global := unionSorted(lists)

	// Stage 3: per-table rank resolution.
	f := &Frozen{
		months: make([]frozenMonth, nm),
		snaps:  make([]frozenSnapshot, ns),
	}
	_ = pool.Each(context.Background(), workers, nm+ns, func(_ context.Context, job int) error {
		if job < nm {
			m := study.Months[job]
			f.months[job] = frozenMonth{
				label: m.Label, month: m.Month,
				ids: resolveRanks(units[job].keys, global),
			}
			return nil
		}
		snap := &study.Snapshots[job-nm]
		u := &units[job]
		byBand := make(map[int][]uint32)
		for i, id := range resolveRanks(u.keys, global) {
			// u.keys ascends, so IDs arrive ascending: each band's set is
			// born sorted.
			byBand[u.bands[i]] = append(byBand[u.bands[i]], id)
		}
		fs := frozenSnapshot{label: snap.Label, month: snap.Month, nv: snap.NV,
			bands: make([]frozenBand, 0, len(byBand))}
		for b, set := range byBand {
			fs.bands = append(fs.bands, frozenBand{band: b, ids: set})
		}
		sort.Slice(fs.bands, func(i, j int) bool { return fs.bands[i].band < fs.bands[j].band })
		f.snaps[job-nm] = fs
		return nil
	})
	return f
}

// unionSorted merges sorted string lists into one sorted unique list by
// binary reduction (merge pairs, then pairs of pairs), so each key moves
// O(log len(lists)) times.
func unionSorted(lists [][]string) []string {
	if len(lists) == 0 {
		return nil
	}
	for len(lists) > 1 {
		merged := make([][]string, 0, (len(lists)+1)/2)
		for i := 0; i < len(lists); i += 2 {
			if i+1 == len(lists) {
				merged = append(merged, lists[i])
				break
			}
			merged = append(merged, mergeUnique(lists[i], lists[i+1]))
		}
		lists = merged
	}
	// A single source list may carry duplicates only if the caller passed
	// one table twice; table row keys are unique, so lists[0] is unique.
	return lists[0]
}

// mergeUnique merges two sorted unique lists into one sorted unique
// list.
func mergeUnique(a, b []string) []string {
	out := make([]string, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// resolveRanks maps a sorted key list to its ranks in the global sorted
// list by linear merge; the output is ascending by construction.
func resolveRanks(keys, global []string) []uint32 {
	ids := make([]uint32, len(keys))
	gi := 0
	for i, key := range keys {
		for global[gi] != key {
			gi++
		}
		ids[i] = uint32(gi)
	}
	return ids
}
