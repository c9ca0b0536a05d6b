// Package core wires the full reproduction pipeline together: a
// radiation population observed simultaneously by a darkspace telescope
// (constant-packet windows, anonymized hypersparse matrices) and a
// honeyfarm outpost (monthly enriched D4M tables), followed by the
// paper's correlation analysis. A Result owns the study those units
// grow; its Report is the memoized artifact graph (internal/report) over
// it.
package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"repro/internal/correlate"
	"repro/internal/honeyfarm"
	"repro/internal/radiation"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/telescope"
	"repro/internal/tripled"
)

// Config parameterizes one full study.
type Config struct {
	Radiation radiation.Config

	NV       int // telescope window size in valid packets
	LeafSize int // hierarchical leaf size (paper: 2^17); also packets per engine batch

	// Workers is the one fan-out knob, handed unchanged to every layer
	// that fans out: the engine's shard workers per window, the study
	// scheduler's months and snapshots in flight, the freeze, and the
	// report graph's per-(snapshot, band) fits. 0 uses GOMAXPROCS at
	// each of them; 1 is one worker of the same code. Any value produces
	// byte-identical artifacts — matrix sums and set intersections do
	// not care who computed them, and results are assembled by index.
	Workers int

	Sensors        int    // read by no study; kept for the benchmark's honeyfarm.New
	AnonPassphrase string // CryptoPAN key derivation

	// StoreAddr, when non-empty, routes the correlation tables through a
	// tripled server at that address (the paper's Accumulo role): every
	// honeyfarm month and telescope source table is published with the
	// batched pipeline path and read back from the store, so the study
	// correlates what the database holds, not what is in memory.
	StoreAddr string

	StudyStart    time.Time   // first honeyfarm month (paper: 2020-02-01)
	SnapshotTimes []time.Time // telescope sample times (paper: five dates in 2020)

	MinBandSources int // bands below this population are skipped in fits
}

// paperSnapshotTimes are the five CAIDA sample times of Table I.
func paperSnapshotTimes() []time.Time {
	return []time.Time{
		time.Date(2020, 6, 17, 12, 0, 0, 0, time.UTC),
		time.Date(2020, 7, 29, 0, 0, 0, 0, time.UTC),
		time.Date(2020, 9, 16, 12, 0, 0, 0, time.UTC),
		time.Date(2020, 10, 28, 0, 0, 0, 0, time.UTC),
		time.Date(2020, 12, 16, 12, 0, 0, 0, time.UTC),
	}
}

// DefaultConfig is the full laptop-scale study: 2^20-packet windows over
// a 200k-source population, 15 honeyfarm months, the paper's five
// snapshot dates.
func DefaultConfig() Config {
	return Config{
		Radiation:      radiation.DefaultConfig(),
		NV:             1 << 20,
		LeafSize:       1 << 14,
		Sensors:        300,
		AnonPassphrase: "observatory-study",
		StudyStart:     time.Date(2020, 2, 1, 0, 0, 0, 0, time.UTC),
		SnapshotTimes:  paperSnapshotTimes(),
		MinBandSources: 25,
	}
}

// QuickConfig is a seconds-scale configuration for tests and examples:
// 2^14-packet windows over a 10k-source population. The paper's laws
// still emerge, with more statistical noise.
func QuickConfig() Config {
	c := DefaultConfig()
	c.NV = 1 << 14
	c.LeafSize = 1 << 10
	c.Radiation.NumSources = 10000
	c.Radiation.ZM = stats.PaperZM(1 << 12)
	c.Radiation.BrightLog2 = 7 // log2(sqrt(2^14))
	c.MinBandSources = 10
	return c
}

// Validate reports the configuration errors of a batch study: New's
// rules, and at least one snapshot time to run.
func (c Config) Validate() error {
	if len(c.SnapshotTimes) == 0 {
		return fmt.Errorf("core: at least one snapshot time required")
	}
	return c.validate()
}

// validate is what New requires. SnapshotTimes may be empty: a
// pipeline's units can grow a study one ingest at a time (the daemon);
// RunContext is what needs the times.
func (c Config) validate() error {
	if err := c.Radiation.Validate(); err != nil {
		return err
	}
	switch {
	case c.NV <= 0:
		return fmt.Errorf("core: NV must be positive, got %d", c.NV)
	case c.LeafSize <= 0:
		return fmt.Errorf("core: LeafSize must be positive, got %d", c.LeafSize)
	case c.StudyStart.IsZero():
		return fmt.Errorf("core: StudyStart required")
	}
	for _, ts := range c.SnapshotTimes {
		m := c.MonthOf(ts)
		if m < 0 || m >= float64(c.Radiation.Months) {
			return fmt.Errorf("core: snapshot %v falls outside the %d-month study", ts, c.Radiation.Months)
		}
	}
	return nil
}

// monthDays is a study month in days, the mean Gregorian month.
const monthDays = 30.44

// MonthOf converts a timestamp to a fractional month index from
// StudyStart.
func (c Config) MonthOf(ts time.Time) float64 {
	return ts.Sub(c.StudyStart).Hours() / 24 / monthDays
}

// MonthTime is MonthOf's inverse: the time a fractional month index
// names.
func (c Config) MonthTime(m float64) time.Time {
	return c.StudyStart.Add(time.Duration(m * monthDays * 24 * float64(time.Hour)))
}

// snapshotLabel names a snapshot everywhere — the study, Table I, the
// store's tel/<label>/ rows, the daemon's ledger — by its UTC second,
// so label order is time order and an instant has one name whatever
// zone it was written in.
func snapshotLabel(ts time.Time) string { return ts.UTC().Format("20060102-150405") }

// sqrtNVLog2 returns log2(sqrt(NV)), the paper's brightness threshold
// exponent (15 for NV = 2^30).
func (c Config) sqrtNVLog2() float64 { return math.Log2(float64(c.NV)) / 2 }

// Fig6Bands returns the brightness bands used for Figure 6, scaled to
// this study's NV the way the paper's bands {2^0, 2^4, 2^8, 2^12, 2^16}
// scale to sqrt(2^30) = 2^15.
func (c Config) Fig6Bands() []int {
	s := c.sqrtNVLog2() / 15.0
	out := make([]int, 0, 5)
	seen := make(map[int]bool)
	for _, b := range []float64{0, 4, 8, 12, 16} {
		k := int(math.Round(b * s))
		if !seen[k] {
			out = append(out, k)
			seen[k] = true
		}
	}
	return out
}

// Fig5Band returns the band used in Figure 5 (2^14 <= d < 2^15 in the
// paper, i.e. one octave below sqrt(NV)).
func (c Config) Fig5Band() int {
	return int(math.Round(c.sqrtNVLog2())) - 1
}

// Pipeline is a configured, reusable study runner.
type Pipeline struct {
	cfg Config
	pop *radiation.Population
	tel *telescope.Telescope
}

// New validates the configuration and builds the population and the
// telescope. The configuration may name no snapshot times when the
// caller grows its study unit by unit (IngestMonth / IngestSnapshot into
// a Result) instead of calling Run.
func New(cfg Config) (*Pipeline, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	pop, err := radiation.NewPopulation(cfg.Radiation)
	if err != nil {
		return nil, err
	}
	tel := telescope.New(cfg.Radiation.Darkspace, cfg.AnonPassphrase,
		telescope.WithLeafSize(cfg.LeafSize))
	return &Pipeline{cfg: cfg, pop: pop, tel: tel}, nil
}

// Result is one study and its one owner: months and snapshots join it
// through AddMonth and AddSnapshot — RunContext after its pool joins,
// the daemon one ingest at a time — and Report is the artifact graph
// derived from it. A Result whose Study and Windows were filled by hand
// before the first Report call reports on what it was given.
type Result struct {
	Config  Config
	Study   correlate.Study      // months by index, snapshots by label (chronological)
	Windows []*telescope.Window  // one anonymized window per snapshot, index-aligned
	Farm    *honeyfarm.Honeyfarm // read by nothing; Run leaves it nil, a hand-built Result may set it

	// StoreHealth records cluster degradation observed during a
	// store-backed study: which replicas were lost and how many reads
	// failed over. Artifacts stay byte-identical through a tolerated
	// failure (that is the cluster's contract); this field is how the
	// study reports that the run leaned on it.
	StoreHealth StoreHealth

	mu     sync.Mutex    // serializes joins with each other and with the graph's creation
	report *report.Graph // nil until the first Report call
}

// Frozen returns the sorted-key compilation of the study's correlation
// tables, shared with every Figure 4-8 emitter of Report.
func (r *Result) Frozen() *correlate.Frozen { return r.Report().Frozen() }

// Report returns the study's artifact graph: every Table and Figure as
// a memoized job with declared dependencies, plus the unified TSV/JSON
// renderer (report.WriteTSV / report.WriteJSON). Built on first use;
// safe for concurrent use. A unit that joins the study afterwards
// invalidates exactly the artifacts that read it.
func (r *Result) Report() *report.Graph {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.report == nil {
		snapMonths := make([]float64, len(r.Config.SnapshotTimes))
		for i, ts := range r.Config.SnapshotTimes {
			snapMonths[i] = r.Config.MonthOf(ts)
		}
		r.report = report.New(report.Input{
			Study:   r.Study,
			Windows: r.Windows,
			Params: report.Params{
				StudyStart:     r.Config.StudyStart,
				NV:             r.Config.NV,
				Fig5Band:       r.Config.Fig5Band(),
				Fig6Bands:      r.Config.Fig6Bands(),
				MinBandSources: r.Config.MinBandSources,
				Workers:        r.Config.Workers,
				Months:         r.Config.Radiation.Months,
				SnapshotMonths: snapMonths,
				AlphaStar:      r.Config.Radiation.AlphaStar,
				DipLog2:        r.Config.Radiation.DipLog2,
			},
		})
	}
	return r.report
}

// monthAt and snapshotAt locate a unit in the study: where it is, or
// where it would join.
func (r *Result) monthAt(m int) (int, bool) {
	return slices.BinarySearchFunc(r.Study.Months, m, func(have correlate.MonthData, m int) int {
		return cmp.Compare(have.Month, m)
	})
}

func (r *Result) snapshotAt(label string) (int, bool) {
	return slices.BinarySearchFunc(r.Study.Snapshots, label, func(have correlate.Snapshot, label string) int {
		return cmp.Compare(have.Label, label)
	})
}

// HasMonth reports whether honeyfarm month m has joined the study.
func (r *Result) HasMonth(m int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, have := r.monthAt(m)
	return have
}

// HasSnapshot reports whether the snapshot taken at ts has joined the
// study.
func (r *Result) HasSnapshot(ts time.Time) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, have := r.snapshotAt(snapshotLabel(ts))
	return have
}

// AddMonth is the one way a honeyfarm month joins a study: in month
// order whatever order months arrive in, a month already present
// refused.
func (r *Result) AddMonth(md correlate.MonthData) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	at, have := r.monthAt(md.Month)
	if have {
		return fmt.Errorf("core: month %d (%s) is already in the study", md.Month, md.Label)
	}
	// Clip forces the insert onto a fresh array (here and in
	// AddSnapshot): an artifact job still reading the slice the graph
	// holds never sees it shift.
	r.Study.Months = slices.Insert(slices.Clip(r.Study.Months), at, md)
	r.grown(report.SrcMonths)
	return nil
}

// AddSnapshot is the one way a telescope window and its source table
// join a study: in label order — chronological — whatever order
// snapshots arrive in, a label already present refused.
func (r *Result) AddSnapshot(w *telescope.Window, snap correlate.Snapshot) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	at, have := r.snapshotAt(snap.Label)
	if have {
		return fmt.Errorf("core: snapshot %s is already in the study", snap.Label)
	}
	r.Study.Snapshots = slices.Insert(slices.Clip(r.Study.Snapshots), at, snap)
	r.Windows = slices.Insert(slices.Clip(r.Windows), at, w)
	r.grown(report.SrcSnapshots)
	return nil
}

// grown hands the graph, if one has been built, the study as it now
// stands and invalidates what reads the source that grew.
func (r *Result) grown(src report.ArtifactID) {
	if r.report != nil {
		r.report.Update(func(in *report.Input) { in.Study, in.Windows = r.Study, r.Windows }, src)
	}
}

// Run executes the full study with background context; see RunContext.
func (p *Pipeline) Run() (*Result, error) { return p.RunContext(context.Background()) }

// IngestMonth is one incremental unit of study growth and the one
// month unit of work, whoever runs it: honeyfarm month m — the daemon
// joins it at once, the batch scheduler after its pool joins. db may be
// nil for an in-memory study, where the month is its source-address set
// and renders no table. With a store it builds the month's table,
// publishes it and reads back what the store holds; the built table is
// garbage once the fetch returns. It keeps nothing, so months may run
// concurrently, and a month whose store round trip failed is simply
// built again, the same table, and re-published idempotently (the
// recovery path relies on this).
func (p *Pipeline) IngestMonth(db tripled.Conn, m int) (correlate.MonthData, error) {
	start := p.cfg.StudyStart.AddDate(0, m, 0)
	label := start.Format("2006-01")
	if db == nil {
		return correlate.NewMonth(label, m, p.pop.HoneyfarmAddrs(m)), nil
	}
	if err := honeyfarm.BuildMonth(label, p.pop.HoneyfarmMonth(m, start)).Publish(db); err != nil {
		return correlate.MonthData{}, fmt.Errorf("core: publish month %s: %w", label, err)
	}
	table, err := honeyfarm.FetchMonthTable(db, label)
	if err != nil {
		return correlate.MonthData{}, fmt.Errorf("core: fetch month %s: %w", label, err)
	}
	return correlate.MonthData{Label: label, Month: m, Table: table}, nil
}

// IngestSnapshot is the other incremental unit: capture one telescope
// window at ts on the pipeline's telescope and reduce it to the D4M
// source table — the snapshot unit the batch scheduler runs. db may be
// nil for an in-memory study. Not safe for concurrent use (one
// telescope runs one capture at a time).
func (p *Pipeline) IngestSnapshot(ctx context.Context, db tripled.Conn, ts time.Time) (*telescope.Window, correlate.Snapshot, error) {
	return p.snapshot(ctx, p.tel, db, ts)
}

// snapshot is the one snapshot unit of work, whoever runs it — the
// daemon on the pipeline's telescope, a scheduler worker on its own:
// capture the window at ts on tel, reduce it to the
// source table and, with a store, publish that table and read back
// what the store holds.
func (p *Pipeline) snapshot(ctx context.Context, tel *telescope.Telescope, db tripled.Conn, ts time.Time) (*telescope.Window, correlate.Snapshot, error) {
	monthFrac := p.cfg.MonthOf(ts)
	stream := p.pop.TelescopeStream(monthFrac, ts)
	w, err := tel.CaptureWindowEngine(ctx, stream, p.cfg.NV, p.cfg.Workers, 0) // a batch of LeafSize packets
	if err != nil {
		return nil, correlate.Snapshot{}, fmt.Errorf("core: snapshot %v: %w", ts, err)
	}
	if w.NV < p.cfg.NV {
		return nil, correlate.Snapshot{}, fmt.Errorf("core: snapshot %v: stream exhausted at %d of %d packets (population too small for NV)",
			ts, w.NV, p.cfg.NV)
	}
	label := snapshotLabel(ts)
	sources := tel.SourceTable(w)
	if db != nil {
		if err := telescope.PublishSources(db, label, sources); err != nil {
			return nil, correlate.Snapshot{}, fmt.Errorf("core: publish snapshot %s: %w", label, err)
		}
		if sources, err = telescope.FetchSourceTable(db, label); err != nil {
			return nil, correlate.Snapshot{}, fmt.Errorf("core: fetch snapshot %s: %w", label, err)
		}
	}
	return w, correlate.Snapshot{
		Label:   label,
		Month:   monthFrac,
		NV:      p.cfg.NV,
		Sources: sources,
	}, nil
}
