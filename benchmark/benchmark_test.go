package main

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return m
}

// TestManifestMatchesRegistry holds BENCHMARK.json against the lists
// the program reports from: same workloads and reasons, same metrics
// with unit, direction and bound, inside the driver's limits.
func TestManifestMatchesRegistry(t *testing.T) {
	m := readManifest(t)
	if want := []string{"go", "run", "./benchmark"}; !reflect.DeepEqual(m.Command, want) {
		t.Errorf("command = %v, want %v", m.Command, want)
	}
	if want := []string{"benchmark"}; !reflect.DeepEqual(m.Paths, want) {
		t.Errorf("paths = %v, want %v", m.Paths, want)
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1..60", m.RunSeconds)
	}
	gated := gatedWorkloads()
	if len(m.Workloads) != len(gated) {
		t.Fatalf("%d workloads declared, program gates %d", len(m.Workloads), len(gated))
	}
	for i, w := range gated {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d = %+v, program has %q: %q", i, m.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	check := func(kind string, got []manifestMetric, want []metricDef, limit int) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics declared, program has %d", kind, len(got), len(want))
		}
		if len(got) > limit {
			t.Errorf("%s: %d metrics, limit %d", kind, len(got), limit)
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s[%d] = %+v, program has %+v", kind, i, g, d)
			}
			if (d.Bound > 0) != (g.Bound != nil) || (g.Bound != nil && *g.Bound != d.Bound) {
				t.Errorf("%s %s: bound mismatch", kind, d.Name)
			}
			if d.Bound > 0.25 {
				t.Errorf("%s %s: bound %v above 0.25", kind, d.Name, d.Bound)
			}
			if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) {
				t.Errorf("%s %s (%s): name or unit outside the driver's alphabet", kind, d.Name, d.Unit)
			}
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s %s: better = %q", kind, d.Name, d.Better)
			}
			if seen[d.Name] {
				t.Errorf("name %s used twice", d.Name)
			}
			seen[d.Name] = true
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd, 16)
	check("per_layer", m.PerLayer, perLayer, 128)
	if endToEnd[0].Name != "setup_s" || endToEnd[0].Unit != "s" || endToEnd[0].Better != "lower" {
		t.Errorf("setup_s must be declared in seconds, lower is better")
	}
	for _, c := range exactCounts {
		if !seen[c] {
			t.Errorf("exact count %s is not a declared metric", c)
		}
	}
}

// smokeRuns caches traced smoke-scale runs by "workload/seed/nth" so
// the tests below share them: the package has to stay a few seconds.
var smokeRuns struct {
	sync.Mutex
	byKey map[string]*run
}

func smokeRun(t *testing.T, workload string, seed int64, nth int) *run {
	t.Helper()
	smokeRuns.Lock()
	defer smokeRuns.Unlock()
	key := workload + "/" + strconv.FormatInt(seed, 10) + "/" + strconv.Itoa(nth)
	if res, ok := smokeRuns.byKey[key]; ok {
		return res
	}
	sc, err := scaleByName("smoke")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	t.Chdir(dir) // scratch directories land under the test's own directory
	res, err := runWorkload(workload, options{
		seed: seed, seconds: 1, trace: true, scale: sc, gomaxprocs: pinProcs(),
		spans: filepath.Join(dir, "spans.json"),
	})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "spans.json"))
	if err != nil {
		t.Fatalf("%s: span file: %v", workload, err)
	}
	var doc struct {
		Spans []span `json:"spans"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil || len(doc.Spans) == 0 {
		t.Fatalf("%s: span file holds %d spans (%v)", workload, len(doc.Spans), err)
	}
	if smokeRuns.byKey == nil {
		smokeRuns.byKey = make(map[string]*run)
	}
	smokeRuns.byKey[key] = res
	return res
}

// TestSmoke runs all five workloads at smoke scale with tracing on and
// checks what they print against BENCHMARK.json: every declared metric
// with its unit, no undeclared one, every gate green (the gates include
// span children summing to their parents), clients within GOMAXPROCS.
func TestSmoke(t *testing.T) {
	m := readManifest(t)
	for _, w := range workloadList {
		res := smokeRun(t, w.name, 1, 0)
		if !res.correct() || res.attempted < 1 {
			t.Errorf("%s: attempted %d, failed %d: %v", w.name, res.attempted, res.failed, res.failures)
		}
		if res.clients < 1 || res.clients > res.gomaxprocs {
			t.Errorf("%s: %d clients with GOMAXPROCS %d", w.name, res.clients, res.gomaxprocs)
		}
		for _, pass := range []struct {
			trace bool
			defs  []manifestMetric
		}{{false, m.EndToEnd}, {true, m.PerLayer}} {
			cp := *res
			cp.trace = pass.trace
			raw, err := json.Marshal(cp.driverLine())
			if err != nil {
				t.Fatal(err)
			}
			var out struct {
				Correct   bool `json:"correct"`
				Attempted int  `json:"attempted"`
				Failed    int  `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			dec := json.NewDecoder(strings.NewReader(string(raw)))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&out); err != nil {
				t.Fatalf("%s: result line: %v", w.name, err)
			}
			if len(out.Metrics) != len(pass.defs) {
				t.Errorf("%s trace=%v: %d metrics printed, %d declared", w.name, pass.trace, len(out.Metrics), len(pass.defs))
			}
			for _, d := range pass.defs {
				got, ok := out.Metrics[d.Name]
				switch {
				case !ok || got.Value == nil:
					t.Errorf("%s trace=%v: metric %s missing", w.name, pass.trace, d.Name)
				case got.Unit != d.Unit:
					t.Errorf("%s: metric %s in %q, declared %q", w.name, d.Name, got.Unit, d.Unit)
				case !pass.trace && *got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, d.Name, *got.Value)
				}
			}
		}
		if res.values["trace.overhead_share"].N == 0 {
			t.Errorf("%s: trace.overhead_share not reported", w.name)
		}
	}
}

// TestCountsRepeat: at a fixed seed the exact-count layer metrics
// repeat exactly; another seed changes the inputs but neither the
// metric names nor the scripted op counts.
func TestCountsRepeat(t *testing.T) {
	for _, w := range workloadList {
		a, b := smokeRun(t, w.name, 1, 0), smokeRun(t, w.name, 1, 1)
		for _, name := range exactCounts {
			if a.values[name] != b.values[name] {
				t.Errorf("%s: %s = %v then %v at the same seed", w.name, name, a.values[name].Value, b.values[name].Value)
			}
		}
	}
	// Poll counts depend on timing, so the op-count half uses the two
	// workloads whose operations are all scripted.
	for _, name := range []string{"pcap_replay", "tripled_kv"} {
		a, c := smokeRun(t, name, 1, 0), smokeRun(t, name, 2, 0)
		if a.attempted != c.attempted {
			t.Errorf("%s: %d ops at seed 1, %d at seed 2", name, a.attempted, c.attempted)
		}
		for k := range a.values {
			if _, ok := c.values[k]; !ok {
				t.Errorf("%s: metric %s at seed 1 only", name, k)
			}
		}
		if len(a.values) != len(c.values) {
			t.Errorf("%s: %d metrics at seed 1, %d at seed 2", name, len(a.values), len(c.values))
		}
	}
	a, c := smokeRun(t, "pcap_replay", 1, 0), smokeRun(t, "pcap_replay", 2, 0)
	if a.values["hypersparse.nnz"] == c.values["hypersparse.nnz"] {
		t.Errorf("pcap_replay: the seed did not change the input (nnz %v both times)", a.values["hypersparse.nnz"].Value)
	}
}

// stableSurface lists, per internal package, the identifiers this
// benchmark may name: the entry points ROADMAP direction 3 keeps, so
// the one-path-per-layer change can land without editing the benchmark.
var stableSurface = map[string][]string{
	"repro/internal/core":            {"Config", "New", "Pipeline", "Result", "DefaultConfig", "QuickConfig"},
	"repro/internal/report":          {"All", "WriteTSV", "WriteJSON", "Graph"},
	"repro/internal/telescope":       {"New", "WithLeafSize", "ReaderSource", "Window", "Telescope", "FetchSourceTable"},
	"repro/internal/radiation":       {"NewPopulation", "Population", "Observation", "Stream"},
	"repro/internal/honeyfarm":       {"New", "MonthWindow", "FetchMonthTable", "MonthRowPrefix"},
	"repro/internal/pcap":            {"NewWriter", "NewReader", "Packet"},
	"repro/internal/netquant":        {"Compute", "Quantities"},
	"repro/internal/daemon":          {"New", "Serve", "Daemon", "Server"},
	"repro/internal/tripled":         {"Serve", "NewStore", "Dial", "Conn", "Server", "Option", "WithDataDir", "WithWALSyncPolicy"},
	"repro/internal/tripled/cluster": {"Dial"},
	"repro/internal/tripled/wal":     {"Open", "Options", "SyncAlways"},
	"repro/internal/correlate":       {"MonthData", "Snapshot"}, // the study's table types only
	"repro/internal/assoc":           {"Assoc", "Value", "Num"},
	"repro/internal/ipaddr":          {"Addr"},
	"repro/internal/stats":           {"PaperZM"},
}

// slatedForDeletion are method and field names of paths ROADMAP
// direction 3 removes; the benchmark must not reach them through any
// value either.
var slatedForDeletion = []string{
	"Freeze", "FreezeParallel", "PeakCorrelation", "TemporalCorrelation", "FitSweep",
	"NewPerWorker", "NewPerWorkerSlab", "CaptureWindow", "CaptureTimeWindow",
	"Anonymize", "AnonymizeAll", "ReadPacket", "Queue", "ReportWith",
}

var workerKnobs = []string{"Workers", "StudyWorkers", "ReportWorkers"}

// TestStableSurface parses the benchmark's own sources and fails on a
// call outside the allowlist, a name slated for deletion, or a write to
// a worker knob.
func TestStableSurface(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	contains := slices.Contains[[]string]
	for _, pkg := range pkgs {
		for path, file := range pkg.Files {
			imports := make(map[string]string) // local name → import path
			for _, imp := range file.Imports {
				p, _ := strconv.Unquote(imp.Path.Value)
				if !strings.HasPrefix(p, "repro/") {
					continue
				}
				if _, ok := stableSurface[p]; !ok {
					t.Errorf("%s imports %s, which the benchmark may not use", path, p)
				}
				local := p[strings.LastIndexByte(p, '/')+1:]
				if imp.Name != nil {
					local = imp.Name.Name
				}
				imports[local] = p
			}
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok && x.Obj == nil {
						if p, ok := imports[x.Name]; ok {
							if !contains(stableSurface[p], n.Sel.Name) {
								t.Errorf("%s: %s.%s is not on the stable surface", fset.Position(n.Pos()), x.Name, n.Sel.Name)
							}
							return true
						}
					}
					if contains(slatedForDeletion, n.Sel.Name) {
						t.Errorf("%s: .%s is slated for deletion", fset.Position(n.Pos()), n.Sel.Name)
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if sel, ok := lhs.(*ast.SelectorExpr); ok && contains(workerKnobs, sel.Sel.Name) {
							t.Errorf("%s: writes worker knob %s", fset.Position(n.Pos()), sel.Sel.Name)
						}
					}
				case *ast.KeyValueExpr:
					if key, ok := n.Key.(*ast.Ident); ok && contains(workerKnobs, key.Name) {
						t.Errorf("%s: sets worker knob %s", fset.Position(n.Pos()), key.Name)
					}
				}
				return true
			})
		}
	}
}

// TestTracer checks the span arithmetic on a hand-built trace.
func TestTracer(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{Name: "parent", Start: 0, End: 10, Parent: -1},
		{Name: "child", Start: 0, End: 4, Parent: 0},
		{Name: "child", Start: 4, End: 9.5, Parent: 0},
	}
	tr.sumChildren("parent")
	if err := tr.checkChildren(0.10); err != nil {
		t.Errorf("children cover 95%%: %v", err)
	}
	if err := tr.checkChildren(0.01); err == nil {
		t.Errorf("children cover 95%%, 1%% tolerance must fail")
	}
	self := tr.selfTimes()
	if self["parent"] != 0.5 || self["child"] != 9.5 {
		t.Errorf("self times = %v", self)
	}
	if got := tr.total("child"); got != 9.5 {
		t.Errorf("total(child) = %v", got)
	}
	var off *tracer
	off.end(off.begin(-1, "x")) // tracing off: no-ops
	if got := percentile([]float64{4, 1, 3, 2}, 0.5); got != 2.5 {
		t.Errorf("median = %v", got)
	}
}
