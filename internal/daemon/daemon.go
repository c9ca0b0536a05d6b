// Package daemon implements the resident study process behind
// cmd/studyd: one long-lived owner of a single study that grows
// incrementally — telescope windows and honeyfarm months arrive over a
// small ingest API instead of being enumerated up front — and serves
// all seven paper artifacts (Tables I-II, Figures 3-8) over HTTP as
// JSON or TSV through the same report.WriteJSON/WriteTSV lowering
// every batch CLI uses.
//
// The design is the control-room shape: one mutator, many cheap
// readers. All ingest is serialized on one goroutine-at-a-time mutex
// (the same contract as the serial batch loop, whose IngestMonth /
// IngestSnapshot units the daemon calls verbatim — parity with a
// from-scratch batch run is by construction, and proven byte-for-byte
// in the tests). After each ingest the daemon asks the report graph to
// invalidate exactly the artifacts that transitively depend on the
// touched source (report.SrcMonths or report.SrcSnapshots), re-renders
// only those, reuses the untouched artifacts' bytes, and publishes the
// whole set with one atomic pointer swap — so a poller costs one
// atomic load plus a map lookup, never observes a half-recomputed
// graph, and thousands of concurrent pollers ride one immutable
// rendered snapshot between updates.
//
// With a store configured the daemon is durable: every ingest
// publishes its table through tripled first (the paper's Accumulo
// role) and then appends a ledger row under studyd/ingest/; ledger
// presence therefore implies the data rows are complete. On restart
// the daemon replays the ledger — months in month order, snapshots in
// time order, the batch loop's order — rebuilding the exact state, and
// re-publishing idempotently if a crash landed between data and
// ledger.
package daemon

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/assoc"
	"repro/internal/core"
	"repro/internal/correlate"
	"repro/internal/report"
	"repro/internal/telescope"
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
	g   *report.Graph
	db  tripled.Conn // nil when storeless, or while the store is unreachable

	// mu serializes all mutation: ingest, recompute, re-render,
	// publish. One mutator at a time is the pipeline's contract (one
	// telescope runs one capture), and it makes each published
	// Rendered a consistent cut of the study.
	mu      sync.Mutex
	months  []correlate.MonthData // sorted by Month index
	windows []*telescope.Window   // index-aligned with snaps
	snaps   []correlate.Snapshot  // sorted by Label (chronological)
	haveM   map[int]bool
	haveS   map[string]bool

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

// StoreState returns the current store health view. Never nil.
func (d *Daemon) StoreState() *StoreInfo { return d.store.Load() }

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

// New builds the resident daemon: a pipeline in resident mode (no
// up-front snapshot times), an empty report graph owned by the daemon
// (Frozen nil — the graph must own the freeze so invalidation reaches
// it), and, when the config names a store, a dialed client plus a
// ledger replay of any previous life's ingests.
func New(cfg core.Config) (*Daemon, error) {
	p, err := core.NewResident(cfg)
	if err != nil {
		return nil, err
	}
	d := &Daemon{
		cfg:   cfg,
		p:     p,
		haveM: make(map[int]bool),
		haveS: make(map[string]bool),
	}
	d.g = report.New(report.Input{
		Params: report.Params{
			StudyStart:     cfg.StudyStart,
			NV:             cfg.NV,
			Fig5Band:       cfg.Fig5Band(),
			Fig6Bands:      cfg.Fig6Bands(),
			MinBandSources: cfg.MinBandSources,
			Workers:        cfg.Workers,
		},
	})
	d.stopC = make(chan struct{})
	d.mu.Lock()
	defer d.mu.Unlock()
	var dialErr error
	if cfg.StoreAddr != "" {
		if db, derr := core.DialStore(cfg.StoreAddr); derr != nil {
			dialErr = derr
		} else {
			d.db = db
			if rerr := d.recoverLocked(); rerr != nil {
				db.Close()
				d.db = nil
				if !tripled.Retryable(rerr) {
					// The store answered and refused (corrupt ledger, protocol
					// mismatch): redialing cannot fix it, fail construction.
					return nil, rerr
				}
				// Dialed but died mid-recovery: same as unreachable; the
				// reconnect loop replays the ledger once it answers.
				dialErr = rerr
			}
		}
		if d.db == nil {
			// Degraded start: serve the (empty) study, report degraded,
			// keep redialing with backoff instead of dying.
			d.connWG.Add(1)
			go d.reconnectLoop()
		}
	}
	d.refreshStoreLocked(dialErr)
	// Publish the initial snapshot (recovered state, or the empty
	// study's 503-bearing artifacts) so pollers always find one.
	d.publishLocked(report.All())
	return d, nil
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
		if err == nil {
			d.mu.Lock()
			d.db = db
			if err = d.recoverLocked(); err == nil {
				d.refreshStoreLocked(nil)
				d.publishLocked(report.All())
				d.mu.Unlock()
				return
			}
			d.db = nil
			d.mu.Unlock()
			db.Close()
			if !tripled.Retryable(err) {
				d.mu.Lock()
				d.refreshStoreLocked(err)
				d.mu.Unlock()
				return
			}
		}
		d.mu.Lock()
		d.refreshStoreLocked(err)
		d.mu.Unlock()
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
// splice into the study in month order, and re-render exactly the
// dependent artifacts. Re-ingesting a present month is a no-op.
func (d *Daemon) IngestMonth(m int) error {
	if d.draining.Load() {
		return errDraining
	}
	if m < 0 || m >= d.cfg.Radiation.Months {
		return fmt.Errorf("daemon: month %d outside the %d-month study", m, d.cfg.Radiation.Months)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.cfg.StoreAddr != "" && d.db == nil {
		return errStoreDegraded
	}
	if d.haveM[m] {
		return nil
	}
	if err := d.ingestMonthLocked(m); err != nil {
		return err
	}
	d.syncLocked(report.SrcMonths)
	return nil
}

// ingestMonthLocked runs the month unit and splices it in, without
// re-rendering — recovery batches many of these under one sync.
func (d *Daemon) ingestMonthLocked(m int) error {
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
	at := sort.Search(len(d.months), func(i int) bool { return d.months[i].Month >= m })
	d.months = append(d.months, correlate.MonthData{})
	copy(d.months[at+1:], d.months[at:])
	d.months[at] = md
	d.haveM[m] = true
	return nil
}

// IngestSnapshot captures a telescope window at ts and folds it into
// the study in chronological order. Re-ingesting a time whose label is
// already present is a no-op.
func (d *Daemon) IngestSnapshot(ts time.Time) error {
	if d.draining.Load() {
		return errDraining
	}
	if m := d.cfg.MonthOf(ts); m < 0 || m >= float64(d.cfg.Radiation.Months) {
		return fmt.Errorf("daemon: snapshot %v falls outside the %d-month study", ts, d.cfg.Radiation.Months)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.cfg.StoreAddr != "" && d.db == nil {
		return errStoreDegraded
	}
	if d.haveS[ts.UTC().Format("20060102-150405")] {
		return nil
	}
	if err := d.ingestSnapshotLocked(ts); err != nil {
		return err
	}
	d.syncLocked(report.SrcSnapshots)
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

func (d *Daemon) ingestSnapshotLocked(ts time.Time) error {
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
	at := sort.Search(len(d.snaps), func(i int) bool { return d.snaps[i].Label >= snap.Label })
	d.snaps = append(d.snaps, correlate.Snapshot{})
	copy(d.snaps[at+1:], d.snaps[at:])
	d.snaps[at] = snap
	d.windows = append(d.windows, nil)
	copy(d.windows[at+1:], d.windows[at:])
	d.windows[at] = w
	d.haveS[snap.Label] = true
	return nil
}

// syncLocked pushes the daemon's study into the report graph, dirties
// the given sources, re-renders exactly the invalidated artifacts, and
// publishes a fresh Rendered reusing every clean artifact's bytes.
func (d *Daemon) syncLocked(dirty ...report.ArtifactID) {
	invalidated := d.g.Update(func(in *report.Input) {
		in.Study.Months = append([]correlate.MonthData(nil), d.months...)
		in.Study.Snapshots = append([]correlate.Snapshot(nil), d.snaps...)
		in.Windows = append([]*telescope.Window(nil), d.windows...)
	}, dirty...)
	d.publishLocked(invalidated)
	// The ingest may have watched a cluster replica die; keep the
	// published store view current.
	d.refreshStoreLocked(nil)
}

// publishLocked renders the given artifacts and swaps in a new
// snapshot; artifacts not listed keep their previous bytes.
func (d *Daemon) publishLocked(ids []report.ArtifactID) {
	prev := d.rendered.Load()
	next := &Rendered{
		At:        time.Now().UTC(),
		Months:    len(d.months),
		Snapshots: len(d.snaps),
		Artifacts: make(map[report.ArtifactID]Artifact, len(report.All())),
	}
	if prev != nil {
		next.Seq = prev.Seq
		for id, a := range prev.Artifacts {
			next.Artifacts[id] = a
		}
	}
	next.Seq++
	redo := make(map[report.ArtifactID]bool, len(ids))
	for _, id := range ids {
		redo[id] = true
	}
	for _, id := range report.All() {
		if _, have := next.Artifacts[id]; have && !redo[id] {
			continue
		}
		var a Artifact
		var tsv, js bytes.Buffer
		if err := report.WriteTSV(&tsv, d.g, id); err != nil {
			a.Err = err.Error()
		} else if err := report.WriteJSON(&js, d.g, id); err != nil {
			a.Err = err.Error()
		} else {
			a.TSV, a.JSON = tsv.Bytes(), js.Bytes()
		}
		next.Artifacts[id] = a
	}
	d.rendered.Store(next)
}

// Runs exposes the graph's per-artifact execution counters (the
// fine-grained invalidation proof surface).
func (d *Daemon) Runs(id report.ArtifactID) int { return d.g.Runs(id) }

// recoverLocked replays the store ledger: every month and snapshot a
// previous life ingested, in the batch loop's order (months by index,
// snapshots by time). The units re-publish their data rows, which is
// idempotent, so a crash between data and ledger row heals itself.
func (d *Daemon) recoverLocked() error {
	monthRows, err := d.db.ScanAllRows(ledgerMonthPrefix, tripled.PrefixEnd(ledgerMonthPrefix), 1024)
	if err != nil {
		return fmt.Errorf("daemon: scan month ledger: %w", err)
	}
	var monthIdx []int
	for _, row := range monthRows {
		cells, err := d.db.Row(row)
		if err != nil {
			return fmt.Errorf("daemon: ledger row %s: %w", row, err)
		}
		v, ok := cells["month"]
		if !ok || !v.Numeric {
			return fmt.Errorf("daemon: ledger row %s has no numeric month cell", row)
		}
		monthIdx = append(monthIdx, int(v.Num))
	}
	sort.Ints(monthIdx)

	snapRows, err := d.db.ScanAllRows(ledgerSnapPrefix, tripled.PrefixEnd(ledgerSnapPrefix), 1024)
	if err != nil {
		return fmt.Errorf("daemon: scan snapshot ledger: %w", err)
	}
	var snapTimes []time.Time
	for _, row := range snapRows {
		cells, err := d.db.Row(row)
		if err != nil {
			return fmt.Errorf("daemon: ledger row %s: %w", row, err)
		}
		v, ok := cells["time"]
		if !ok {
			return fmt.Errorf("daemon: ledger row %s has no time cell", row)
		}
		ts, err := time.Parse(time.RFC3339Nano, v.Str)
		if err != nil {
			return fmt.Errorf("daemon: ledger row %s time %q: %w", row, v.Str, err)
		}
		snapTimes = append(snapTimes, ts)
	}
	sort.Slice(snapTimes, func(i, j int) bool { return snapTimes[i].Before(snapTimes[j]) })

	for _, m := range monthIdx {
		if d.haveM[m] {
			continue
		}
		if err := d.ingestMonthLocked(m); err != nil {
			return fmt.Errorf("daemon: recover month %d: %w", m, err)
		}
	}
	for _, ts := range snapTimes {
		if d.haveS[ts.UTC().Format("20060102-150405")] {
			continue
		}
		if err := d.ingestSnapshotLocked(ts); err != nil {
			return fmt.Errorf("daemon: recover snapshot %v: %w", ts, err)
		}
	}
	if len(monthIdx) > 0 || len(snapTimes) > 0 {
		// One graph update for the whole replay; publishLocked follows
		// in New.
		d.g.Update(func(in *report.Input) {
			in.Study.Months = append([]correlate.MonthData(nil), d.months...)
			in.Study.Snapshots = append([]correlate.Snapshot(nil), d.snaps...)
			in.Windows = append([]*telescope.Window(nil), d.windows...)
		}, report.SrcMonths, report.SrcSnapshots)
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
