// Package daemon implements the resident study process behind
// cmd/studyd: one long-lived owner of a single study that grows
// incrementally — telescope windows and honeyfarm months arrive over a
// small ingest API instead of being enumerated up front — and serves
// all seven paper artifacts (Tables I-II, Figures 3-8) over HTTP as
// JSON or TSV through the same report.WriteJSON/WriteTSV lowering
// every batch CLI uses.
//
// The daemon is a ledger, a render cache and an HTTP edge around the
// batch types: it grows the same core.Result a batch run returns, with
// the units (Pipeline.IngestMonth / IngestSnapshot) and the joins
// (Result.AddMonth / AddSnapshot) the batch scheduler uses — parity
// with a from-scratch batch run is by construction, and proven
// byte-for-byte in the tests. The shape is the control room's: one
// mutator, many cheap readers. All ingest is serialized on one mutex;
// a join invalidates exactly the artifacts that read what grew, the
// daemon re-renders only those, reuses the untouched artifacts' bytes,
// and publishes the whole set with one atomic pointer swap — so a
// poller costs one
// atomic load plus a map lookup, never observes a half-recomputed
// graph, and thousands of concurrent pollers ride one immutable
// rendered snapshot between updates.
//
// With a store configured the daemon is durable: every ingest
// publishes its table through tripled first (the paper's Accumulo
// role) and then appends a ledger row under studyd/ingest/; ledger
// presence therefore implies the data rows are complete. On restart
// the daemon replays the ledger, rebuilding the exact state (the study
// orders its own units), and re-publishing idempotently if a crash
// landed between data and ledger.
package daemon

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/assoc"
	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/tripled"
	"repro/internal/tripled/cluster"
)

// Ledger row prefixes in the tripled store. A ledger row is written
// only after the ingest's data rows are fully published, so scanning
// the ledger on restart yields exactly the recoverable units.
const (
	ledgerMonthPrefix = "studyd/ingest/month/"
	ledgerSnapPrefix  = "studyd/ingest/snap/"
)

// Artifact is one rendered deliverable in both encodings. Err is
// non-empty when the artifact cannot be computed from the current
// study state (e.g. Figure 5 before the first snapshot arrives); the
// HTTP layer serves it as 503 until an ingest clears it.
type Artifact struct {
	TSV  []byte
	JSON []byte
	Err  string
}

// Rendered is one immutable published snapshot of every artifact.
// Readers obtain it with a single atomic load; writers build a fresh
// one (reusing the bytes of artifacts the update did not dirty) and
// swap it in whole.
type Rendered struct {
	Seq       int64     // monotone update counter, 1 = initial empty render
	At        time.Time // when this snapshot was published
	Months    int       // study size at render time
	Snapshots int
	Artifacts map[report.ArtifactID]Artifact
}

// Daemon owns one resident study. Construct with New; drive it either
// directly (Ingest* / Snapshot, as the tests do) or over HTTP
// (Handler / Serve in http.go).
type Daemon struct {
	cfg core.Config
	p   *core.Pipeline
	res *core.Result // the study; grown under mu, never replaced
	db  tripled.Conn // nil when storeless, or while the store is unreachable

	// mu serializes all mutation: ingest, recompute, re-render,
	// publish. One mutator at a time is the pipeline's contract (one
	// telescope runs one capture), and it makes each published
	// Rendered a consistent cut of the study.
	mu sync.Mutex

	rendered atomic.Pointer[Rendered]
	draining atomic.Bool

	// store is the lock-free health view served by /healthz and
	// /status: a daemon configured with a store that cannot reach it
	// reports degraded and rejects ingest with 503 instead of dying,
	// while a background loop keeps redialing with backoff (see
	// reconnectLoop). A cluster-backed daemon that lost a replica but
	// kept quorum also reports degraded — still ingesting, but leaning
	// on replication.
	store     atomic.Pointer[StoreInfo]
	stopC     chan struct{} // closes to stop the reconnect loop
	connWG    sync.WaitGroup
	closeOnce sync.Once
}

// Store states reported by StoreInfo.State.
const (
	StoreNone     = "none"     // no store configured
	StoreOK       = "ok"       // connected, all members healthy
	StoreDegraded = "degraded" // unreachable at startup, or a cluster member down
)

// StoreInfo is the externally visible store health.
type StoreInfo struct {
	State string   `json:"state"`
	Down  []string `json:"down,omitempty"`  // cluster members lost mid-run
	Err   string   `json:"error,omitempty"` // last failure while disconnected
}

// storeState returns the current store health view. Never nil.
func (d *Daemon) storeState() *StoreInfo { return d.store.Load() }

// refreshStoreLocked recomputes the published store view; dialErr
// carries the most recent failure while disconnected.
func (d *Daemon) refreshStoreLocked(dialErr error) {
	info := &StoreInfo{State: StoreNone}
	if d.cfg.StoreAddr != "" {
		switch {
		case d.db == nil:
			info.State = StoreDegraded
			if dialErr != nil {
				info.Err = dialErr.Error()
			}
		default:
			info.State = StoreOK
			if cc, ok := d.db.(*cluster.Client); ok {
				if h := cc.Health(); h.Degraded() {
					info.State = StoreDegraded
					info.Down = h.Down
				}
			}
		}
	}
	d.store.Store(info)
}

// New builds the resident daemon: a pipeline, an empty study (the
// config's snapshot times only seed a preload) and, when the config
// names a store, a dialed client plus a ledger replay of any previous
// life's ingests.
func New(cfg core.Config) (*Daemon, error) {
	p, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	d := &Daemon{cfg: cfg, p: p, res: &core.Result{Config: cfg}, stopC: make(chan struct{})}
	d.mu.Lock()
	defer d.mu.Unlock()
	if cfg.StoreAddr == "" {
		d.refreshStoreLocked(nil)
	} else if err := d.attachLocked(core.DialStore(cfg.StoreAddr)); err != nil {
		return nil, err
	} else if d.db == nil {
		// Degraded start: serve the (empty) study, report degraded,
		// keep redialing with backoff instead of dying.
		d.connWG.Add(1)
		go d.reconnectLoop()
	}
	// Publish the initial snapshot (recovered state, or the empty
	// study's 503-bearing artifacts) so pollers always find one.
	d.publishLocked()
	return d, nil
}

// attachLocked is the one connect step of New and reconnectLoop: it
// takes a dial's outcome and, when the dial succeeded, replays the
// ledger (recoverLocked), keeping the connection only if the replay
// succeeds. It refreshes the store view with whatever failed, and
// returns that failure only when redialing cannot fix it: the store
// answered and refused the replay (corrupt ledger, protocol mismatch).
// A failed dial, or a store that died mid-replay, is left to the
// reconnect loop.
func (d *Daemon) attachLocked(db tripled.Conn, err error) (final error) {
	if err == nil {
		d.db = db
		if err = d.recoverLocked(); err != nil {
			d.db = nil
			db.Close()
			if !tripled.Retryable(err) {
				final = err
			}
		}
	}
	d.refreshStoreLocked(err)
	return final
}

// reconnectLoop keeps redialing a store that was unreachable at
// startup, with bounded exponential backoff, and replays the ledger
// once it answers. It exits on success, on a non-retryable recovery
// failure (left visible in the store view), or at Close.
func (d *Daemon) reconnectLoop() {
	defer d.connWG.Done()
	backoff := 100 * time.Millisecond
	const maxBackoff = 5 * time.Second
	for {
		select {
		case <-d.stopC:
			return
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > maxBackoff {
			backoff = maxBackoff
		}
		db, err := core.DialStore(d.cfg.StoreAddr)
		d.mu.Lock()
		final := d.attachLocked(db, err)
		attached := d.db != nil
		if attached {
			d.publishLocked()
		}
		d.mu.Unlock()
		if attached || final != nil {
			return
		}
	}
}

// Close stops the reconnect loop and releases the store connection.
// HTTP lifecycles go through Shutdown in http.go, which drains first.
func (d *Daemon) Close() error {
	d.closeOnce.Do(func() { close(d.stopC) })
	d.connWG.Wait()
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.db != nil {
		err := d.db.Close()
		d.db = nil
		return err
	}
	return nil
}

// Snapshot returns the current published render. Never nil after New.
func (d *Daemon) Snapshot() *Rendered { return d.rendered.Load() }

// IngestMonth ingests honeyfarm month m (0-based from StudyStart):
// build, publish to the store when configured, append the ledger row,
// join the study, and re-render exactly the dependent artifacts.
// Re-ingesting a present month is a no-op.
func (d *Daemon) IngestMonth(m int) error {
	return d.ingest(func() error { return d.ingestMonthLocked(m) })
}

// IngestSnapshot captures a telescope window at ts and joins it to the
// study. Re-ingesting an instant whose label is already present is a
// no-op.
func (d *Daemon) IngestSnapshot(ts time.Time) error {
	return d.ingest(func() error { return d.ingestSnapshotLocked(ts) })
}

// ingest is the mutator both ingest calls share: refuse while draining
// or while a configured store is unreachable, run the unit under the
// lock, publish what it changed.
func (d *Daemon) ingest(unit func() error) error {
	if d.draining.Load() {
		return errDraining
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.cfg.StoreAddr != "" && d.db == nil {
		return errStoreDegraded
	}
	if err := unit(); err != nil {
		return err
	}
	d.publishLocked()
	// The ingest may have watched a cluster replica die; keep the
	// published store view current.
	d.refreshStoreLocked(nil)
	return nil
}

// errDraining rejects ingest once Shutdown has begun; pollers keep
// being served from the last published snapshot until the listener
// closes.
var errDraining = errors.New("daemon: draining, ingest rejected")

// errStoreDegraded rejects ingest while a configured store is
// unreachable: accepting data that cannot be made durable would break
// the ledger's "presence implies completeness" invariant. Served as
// 503 — retry once /healthz reports the store ok again.
var errStoreDegraded = errors.New("daemon: store degraded (unreachable), ingest deferred")

// ingestMonthLocked runs the month unit, ledgers it and joins it to
// the study unless the study already holds it, without re-rendering —
// recovery batches many of these under one publish. It refuses a month
// outside the study, whether the API or the ledger asked for it.
func (d *Daemon) ingestMonthLocked(m int) error {
	if m < 0 || m >= d.cfg.Radiation.Months {
		return fmt.Errorf("daemon: month %d outside the %d-month study", m, d.cfg.Radiation.Months)
	}
	if d.res.HasMonth(m) {
		return nil
	}
	md, err := d.p.IngestMonth(d.db, m)
	if err != nil {
		return err
	}
	if d.db != nil {
		row := ledgerMonthPrefix + md.Label
		if err := d.db.Put(row, "month", assoc.Num(float64(m))); err != nil {
			return fmt.Errorf("daemon: ledger month %s: %w", md.Label, err)
		}
	}
	return d.res.AddMonth(md)
}

// ingestSnapshotLocked is ingestMonthLocked for the snapshot unit.
func (d *Daemon) ingestSnapshotLocked(ts time.Time) error {
	if m := d.cfg.MonthOf(ts); m < 0 || m >= float64(d.cfg.Radiation.Months) {
		return fmt.Errorf("daemon: snapshot %v falls outside the %d-month study", ts, d.cfg.Radiation.Months)
	}
	if d.res.HasSnapshot(ts) {
		return nil
	}
	w, snap, err := d.p.IngestSnapshot(context.Background(), d.db, ts)
	if err != nil {
		return err
	}
	if d.db != nil {
		row := ledgerSnapPrefix + snap.Label
		if err := d.db.Put(row, "time", assoc.Str(ts.UTC().Format(time.RFC3339Nano))); err != nil {
			return fmt.Errorf("daemon: ledger snapshot %s: %w", snap.Label, err)
		}
	}
	return d.res.AddSnapshot(w, snap)
}

// publishLocked renders the artifacts the study's growth invalidated
// (all of them, the first time) and swaps in a new snapshot in which the
// rest keep their previous bytes. With nothing invalidated — a repeated
// ingest, a replay of an empty ledger — the published snapshot stands.
func (d *Daemon) publishLocked() {
	g := d.res.Report()
	prev := d.rendered.Load()
	next := &Rendered{
		Seq:       1,
		At:        time.Now().UTC(),
		Months:    len(d.res.Study.Months),
		Snapshots: len(d.res.Study.Snapshots),
		Artifacts: make(map[report.ArtifactID]Artifact, len(report.All())),
	}
	if prev != nil {
		next.Seq = prev.Seq + 1
	}
	stale := false
	for _, id := range report.All() {
		if prev != nil && g.Fresh(id) {
			next.Artifacts[id] = prev.Artifacts[id]
			continue
		}
		var a Artifact
		var tsv, js bytes.Buffer
		if err := report.WriteTSV(&tsv, g, id); err != nil {
			a.Err = err.Error()
		} else if err := report.WriteJSON(&js, g, id); err != nil {
			a.Err = err.Error()
		} else {
			a.TSV, a.JSON = tsv.Bytes(), js.Bytes()
		}
		next.Artifacts[id] = a
		stale = true
	}
	if stale {
		d.rendered.Store(next)
	}
}

// Runs exposes the graph's per-artifact execution counters (the
// fine-grained invalidation proof surface).
func (d *Daemon) Runs(id report.ArtifactID) int { return d.res.Report().Runs(id) }

// recoverLocked replays the store ledger: every month and snapshot a
// previous life ingested and this one does not hold yet. The units
// re-publish their data rows, which is idempotent, so a crash between
// data and ledger row heals itself; the caller publishes once for the
// whole replay. A unit the ingest API would refuse fails the replay.
func (d *Daemon) recoverLocked() error {
	err := d.replayLocked(ledgerMonthPrefix, "month", func(v assoc.Value) error {
		if !v.Numeric || v.Num != math.Trunc(v.Num) {
			return fmt.Errorf("month %v is not a whole number", v)
		}
		return d.ingestMonthLocked(int(v.Num))
	})
	if err != nil {
		return err
	}
	return d.replayLocked(ledgerSnapPrefix, "time", func(v assoc.Value) error {
		ts, err := time.Parse(time.RFC3339Nano, v.Str)
		if err != nil {
			return err
		}
		return d.ingestSnapshotLocked(ts)
	})
}

// replayLocked reads the ledger under the prefix as one table and hands
// unit the named cell of each row, in row order.
func (d *Daemon) replayLocked(prefix, cell string, unit func(v assoc.Value) error) error {
	ledger, err := d.db.FetchAssoc(prefix, 1024)
	if err != nil {
		return fmt.Errorf("daemon: read ledger %s: %w", prefix, err)
	}
	for _, key := range ledger.RowKeys() {
		v, ok := ledger.Get(key, cell)
		if !ok {
			return fmt.Errorf("daemon: ledger row %s%s has no %s cell", prefix, key, cell)
		}
		if err := unit(v); err != nil {
			return fmt.Errorf("daemon: recover ledger row %s%s: %w", prefix, key, err)
		}
	}
	return nil
}

// parseMonthArg parses the ingest API's month field, accepting both a
// bare index and a "2020-05" label relative to StudyStart.
func (d *Daemon) parseMonthArg(s string) (int, error) {
	if m, err := strconv.Atoi(s); err == nil {
		return m, nil
	}
	t, err := time.Parse("2006-01", s)
	if err != nil {
		return 0, fmt.Errorf("daemon: month %q is neither an index nor a 2006-01 label", s)
	}
	start := d.cfg.StudyStart
	return (t.Year()-start.Year())*12 + int(t.Month()-start.Month()), nil
}
