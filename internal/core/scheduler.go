package core

// scheduler.go is the study-level scheduler: the honeyfarm months and
// telescope snapshots — mutually independent, deterministic units of
// work — fan out across Config.Workers goroutines of the shared worker
// pool (internal/pool, also ridden by the freeze and the report graph's
// per-band model fits). One worker is the same schedule run on the
// caller's goroutine.
//
// The design rests on three ownership rules:
//
//   - The radiation Population is immutable after construction, so any
//     number of workers may synthesize months and streams from it
//     concurrently.
//   - Shared mutable state is either concurrency-safe or never touched
//     from the pool. Each snapshot worker captures through its own
//     Telescope but all of them share the pipeline's one CryptoPAN
//     source memo (cryptopan.Cached is sharded-lock concurrency-safe,
//     the mapping is a pure function of the passphrase, and sharing
//     means one warm memo instead of N cold per-worker ones; nothing
//     reads the memo as a whole — de-anonymization walks the key — so
//     a neighbour's concurrent inserts cost a snapshot nothing); each
//     worker with store traffic dials its own tripled client (the
//     client is single-connection, not concurrency-safe).
//   - Results land in index-addressed slots and join the Result in order
//     through AddMonth / AddSnapshot, so the Result does not depend on
//     the worker count — pinned by TestParallelStudyWorkerSweep against
//     the committed goldens.

import (
	"context"
	"fmt"
	"slices"
	"time"

	"repro/internal/correlate"
	"repro/internal/pool"
	"repro/internal/telescope"
	"repro/internal/tripled"
)

// RunContext executes the full study: 15 honeyfarm months plus one
// telescope window per configured snapshot time captured through the
// sharded streaming engine, reduced to D4M source tables. Months and
// snapshots fan out across Config.Workers goroutines, each window
// across as many engine shards. With Config.StoreAddr set, every month
// and snapshot table round-trips through the tripled service before
// correlation. Cancelling ctx abandons the study mid-window.
//
// Job indices 0..nSnaps-1 are the snapshots and the rest the months, so
// the pool's in-order hand-out schedules snapshot jobs first: windows
// dominate the wall clock, and starting them first keeps the pool
// saturated while the cheaper month builds fill the gaps.
func (p *Pipeline) RunContext(ctx context.Context) (*Result, error) {
	if err := p.cfg.Validate(); err != nil {
		return nil, err
	}
	res := &Result{Config: p.cfg}

	// One capture per label: a time configured twice is one snapshot.
	times := slices.Clone(p.cfg.SnapshotTimes)
	slices.SortFunc(times, time.Time.Compare)
	times = slices.CompactFunc(times, func(a, b time.Time) bool { return snapshotLabel(a) == snapshotLabel(b) })

	nMonths := p.cfg.Radiation.Months
	nSnaps := len(times)
	monthData := make([]correlate.MonthData, nMonths)
	windows := make([]*telescope.Window, nSnaps)
	snapData := make([]correlate.Snapshot, nSnaps)

	health := &storeHealthAgg{}
	err := pool.EachWorker(ctx, p.cfg.Workers, nSnaps+nMonths,
		func() *studyWorker { return &studyWorker{p: p, health: health} },
		(*studyWorker).close,
		func(ctx context.Context, w *studyWorker, job int) error {
			var err error
			if job < nSnaps {
				windows[job], snapData[job], err = w.runSnapshot(ctx, times[job])
			} else {
				m := job - nSnaps
				monthData[m], err = w.runMonth(m)
			}
			return err
		})
	if err != nil {
		return nil, err
	}

	// Assemble by index: join every unit to the study the way an ingest
	// does.
	for _, md := range monthData {
		if err := res.AddMonth(md); err != nil {
			return nil, err
		}
	}
	for i, w := range windows {
		if err := res.AddSnapshot(w, snapData[i]); err != nil {
			return nil, err
		}
	}
	res.StoreHealth = health.result()
	return res, nil
}

// studyWorker is one pool goroutine's lazily created private state: a
// telescope of its own (created on the first snapshot job) and a
// tripled client of its own (dialed on first store use).
type studyWorker struct {
	p      *Pipeline
	tel    *telescope.Telescope
	db     tripled.Conn
	dbE    error // sticky dial failure
	health *storeHealthAgg
}

func (w *studyWorker) close() {
	if w.db != nil {
		if h, ok := storeHealthOf(w.db); ok {
			w.health.add(h)
		}
		w.db.Close()
	}
}

// client returns the worker's tripled connection, dialing on first use;
// it returns (nil, nil) when the study runs without a store.
func (w *studyWorker) client() (tripled.Conn, error) {
	if w.p.cfg.StoreAddr == "" || w.dbE != nil {
		return nil, w.dbE
	}
	if w.db == nil {
		db, err := DialStore(w.p.cfg.StoreAddr)
		if err != nil {
			w.dbE = fmt.Errorf("core: store %s: %w", w.p.cfg.StoreAddr, err)
			return nil, w.dbE
		}
		w.db = db
	}
	return w.db, nil
}

// runMonth runs one month unit over the worker's store connection.
func (w *studyWorker) runMonth(m int) (correlate.MonthData, error) {
	db, err := w.client()
	if err != nil {
		return correlate.MonthData{}, err
	}
	return w.p.IngestMonth(db, m)
}

// runSnapshot runs one snapshot unit on the worker's private telescope
// and store connection.
func (w *studyWorker) runSnapshot(ctx context.Context, ts time.Time) (*telescope.Window, correlate.Snapshot, error) {
	p := w.p
	if w.tel == nil {
		// Private telescope (captures must not run concurrently on one),
		// but the study's single CryptoPAN memo: the mapping is a pure
		// function of the passphrase, so sharing is output-neutral, and
		// the heavy-tailed sources every snapshot sees again are walked
		// once for the whole study instead of once per worker. Cached is
		// concurrency-safe; the per-shard L1 memos stay worker-private.
		w.tel = telescope.New(p.cfg.Radiation.Darkspace, p.cfg.AnonPassphrase,
			telescope.WithLeafSize(p.cfg.LeafSize),
			telescope.WithAnonymizer(p.tel.Anonymizer()))
	}
	db, err := w.client()
	if err != nil {
		return nil, correlate.Snapshot{}, err
	}
	return p.snapshot(ctx, w.tel, db, ts)
}
