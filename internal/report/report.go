// Package report is the unified artifact subsystem: the paper's seven
// deliverables — Table I, Table II, and Figures 3 through 8 — computed
// once each through a typed dependency graph and rendered by one
// TSV/JSON writer shared by every CLI.
//
// Each artifact is a job with declared dependencies, memoized on first
// use and safe for concurrent use; core.Result.Report is the graph over
// a study.
// Every temporal artifact depends on the study's frozen sorted-key
// compilation; fig7_fig8 additionally fans out one Frozen.FitBand
// (2-D grid search) job per (snapshot, band) onto the same worker pool the
// study scheduler rides, assembling the sweep in deterministic
// SweepBands order, so any worker count renders byte-identically
// (TestReportWorkerSweep holds each to the committed goldens, under
// -race).
//
// The graph is a cache derived from a study that may grow: the input's
// two growing sets — the honeyfarm months and the telescope snapshots —
// are explicit source nodes (SrcMonths, SrcSnapshots), and Update (its
// one caller is core.Result, when a unit joins the study) swaps the
// input and dirties exactly the artifacts that transitively depend on
// the touched sources. A month re-executes the frozen compilation and
// the temporal figures but never Table II or Figure 3, which depend
// only on snapshots; per-node execution counters (Runs) make that
// guarantee testable. Memoized values are immutable once returned, so
// a reader that obtained an artifact before an Update keeps a fully
// consistent (if older) value — nothing is mutated in place.
//
// Rendering goes through one lowering: every artifact becomes a Table
// (comment preamble, columns, formatted rows), and WriteTSV/WriteJSON
// both consume that Table — so the two encodings cannot drift, and the
// committed golden files in testdata/ pin the TSV bytes.
package report

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/correlate"
	"repro/internal/telescope"
)

// ArtifactID names one of the paper's deliverables. Figures 7 and 8
// share one artifact (both are renderings of the same per-band fit
// sweep), mirroring the historical fig7_fig8.tsv output.
type ArtifactID string

const (
	Table1   ArtifactID = "table1"
	Table2   ArtifactID = "table2"
	Fig3     ArtifactID = "fig3"
	Fig4     ArtifactID = "fig4"
	Fig5     ArtifactID = "fig5"
	Fig6     ArtifactID = "fig6"
	Fig7Fig8 ArtifactID = "fig7_fig8"

	// artFrozen is the internal node every temporal artifact depends
	// on: the study's sorted-key compilation (correlate.Freeze).
	artFrozen ArtifactID = "frozen"

	// SrcMonths and SrcSnapshots are the graph's source nodes: they
	// compute nothing, but every artifact declares which of the two
	// growing input sets it reads, so Update can dirty exactly the
	// dependent artifacts when the study grows.
	SrcMonths    ArtifactID = "src_months"
	SrcSnapshots ArtifactID = "src_snapshots"
)

// All returns the seven renderable artifacts in canonical paper order.
func All() []ArtifactID {
	return []ArtifactID{Table1, Table2, Fig3, Fig4, Fig5, Fig6, Fig7Fig8}
}

// Filename is the conventional output name for an artifact in the
// given format ("tsv" or "json"), e.g. "fig7_fig8.tsv".
func Filename(id ArtifactID, format string) string {
	return string(id) + "." + format
}

// Params are the study parameters the artifacts embed, decoupled from
// core.Config so core can depend on this package without a cycle.
type Params struct {
	StudyStart     time.Time // first honeyfarm month
	NV             int       // telescope window size in valid packets
	Fig5Band       int       // the band Figure 5 plots
	Fig6Bands      []int     // the bands Figure 6 sweeps
	MinBandSources int       // bands below this population are skipped in fits

	// What the study was asked for, which the laws (laws.go) hold the
	// artifacts to.
	Months         int       // honeyfarm months
	SnapshotMonths []float64 // study month of each snapshot time
	AlphaStar      float64   // the generator's temporal decay exponent α*
	DipLog2        float64   // log2 brightness at the centre of the generator's drop dip

	// Workers is the fan-out of the freeze and of every artifact that
	// walks independent windows or (snapshot, band) pairs — table2,
	// fig3, fig6, fig7_fig8 — with the pool's semantics (0 uses
	// GOMAXPROCS). Every value produces byte-identical artifacts.
	Workers int
}

// Input is everything the artifact graph reads: the correlation
// tables, the captured windows, and the study parameters. The graph
// never mutates it; the study's owner replaces it through Graph.Update.
type Input struct {
	Study   correlate.Study
	Windows []*telescope.Window // one per snapshot, index-aligned with Study.Snapshots
	Params  Params
}

// node is one artifact job: declared dependencies, a compute function,
// and a memoized (value, error) pair with an execution counter.
type node struct {
	deps []ArtifactID
	run  func(g *Graph) (any, error)

	mu    sync.Mutex
	valid bool
	val   any
	err   error
	runs  int
}

// Graph is the memoized artifact registry for one study. Build it with
// New; all methods are safe for concurrent use, and every artifact is
// computed at most once per invalidation epoch. Returned values are
// shared between callers and must be treated as read-only.
type Graph struct {
	inMu  sync.RWMutex // guards in against Update; computes hold the read side
	in    Input
	nodes map[ArtifactID]*node
	rdeps map[ArtifactID][]ArtifactID // reverse dependency edges, fixed at New
}

// New builds the artifact graph over one study's results.
func New(in Input) *Graph {
	g := &Graph{in: in}
	noop := func(*Graph) (any, error) { return nil, nil }
	g.nodes = map[ArtifactID]*node{
		SrcMonths:    {run: noop},
		SrcSnapshots: {run: noop},
		artFrozen:    {deps: []ArtifactID{SrcMonths, SrcSnapshots}, run: runFrozen},
		Table1:       {deps: []ArtifactID{SrcMonths, SrcSnapshots}, run: runTableI},
		Table2:       {deps: []ArtifactID{SrcSnapshots}, run: runTableII},
		Fig3:         {deps: []ArtifactID{SrcSnapshots}, run: runFig3},
		Fig4:         {deps: []ArtifactID{artFrozen}, run: runFig4},
		Fig5:         {deps: []ArtifactID{artFrozen}, run: runFig5},
		Fig6:         {deps: []ArtifactID{artFrozen}, run: runFig6},
		Fig7Fig8:     {deps: []ArtifactID{artFrozen}, run: runFig7And8},
	}
	g.rdeps = make(map[ArtifactID][]ArtifactID, len(g.nodes))
	for id, n := range g.nodes {
		for _, dep := range n.deps {
			g.rdeps[dep] = append(g.rdeps[dep], id)
		}
	}
	return g
}

// get resolves an artifact: dependencies first, then the node's own
// compute, all memoized. A dependency failure is the node's failure.
// Node locks nest parent-before-dependency, a consistent topological
// order over the (acyclic) graph, so concurrent gets cannot deadlock.
func (g *Graph) get(id ArtifactID) (any, error) {
	n, ok := g.nodes[id]
	if !ok {
		return nil, fmt.Errorf("report: unknown artifact %q", id)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.valid {
		return n.val, n.err
	}
	for _, dep := range n.deps {
		if _, err := g.get(dep); err != nil {
			n.val, n.err, n.valid = nil, err, true
			return nil, err
		}
	}
	// Hold the input read-lock across the compute: an Update cannot
	// swap the input out from under a running job, and the memo set
	// below therefore matches the pre-Update input — Update's
	// invalidation, which necessarily runs after this lock releases,
	// clears it again.
	g.inMu.RLock()
	n.val, n.err = n.run(g)
	g.inMu.RUnlock()
	n.runs++
	n.valid = true
	return n.val, n.err
}

// Runs reports how many times an artifact's compute job has executed
// over the graph's lifetime. A memoized hit does not count; an
// execution after an Update that dirtied the artifact does. Tests use
// this to prove invalidation is fine-grained (an ingest that touches
// only months never re-executes Table II or Figure 3).
func (g *Graph) Runs(id ArtifactID) int {
	n, ok := g.nodes[id]
	if !ok {
		return 0
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.runs
}

// Fresh reports whether the artifact's memoized value is current: it
// has been computed and no Update has dirtied it since. The daemon's
// render cache re-renders exactly the artifacts that are not.
func (g *Graph) Fresh(id ArtifactID) bool {
	n, ok := g.nodes[id]
	if !ok {
		return false
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.valid
}

// Update atomically applies mut to the graph's input and invalidates
// the given source nodes plus everything that transitively depends on
// them. Values handed out before the Update stay valid for their
// holders (they are never mutated in place); the next get recomputes.
//
// Update is safe for concurrent use with readers, but concurrent
// Updates must be serialized by the owner (core.Result holds its lock).
func (g *Graph) Update(mut func(*Input), dirty ...ArtifactID) {
	g.inMu.Lock()
	mut(&g.in)
	g.inMu.Unlock()
	seen := make(map[ArtifactID]bool)
	var walk func(ArtifactID)
	walk = func(id ArtifactID) {
		if seen[id] {
			return
		}
		seen[id] = true
		n := g.nodes[id]
		n.mu.Lock()
		n.valid = false
		n.mu.Unlock()
		for _, dep := range g.rdeps[id] {
			walk(dep)
		}
	}
	for _, id := range dirty {
		walk(id)
	}
}

// Frozen returns the study's sorted-key compilation (interned row IDs,
// per-band sorted sets) through the graph, so every temporal artifact
// and every outside caller share one Freeze per invalidation epoch.
func (g *Graph) Frozen() *correlate.Frozen {
	v, _ := g.get(artFrozen) // cannot fail
	return v.(*correlate.Frozen)
}

func runFrozen(g *Graph) (any, error) {
	return correlate.Freeze(g.in.Study, g.in.Params.Workers), nil
}
