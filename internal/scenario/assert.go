package scenario

// assert.go is the expected-result engine. The "assert:" block is a
// list of single-key items; each key names a check kind and its value
// parameterizes it:
//
//	assert:
//	  - table2: {quantity: valid_packets, equals: 16384}
//	  - table2: {quantity: unique_sources, min: 800, max: 6000}
//	  - table2: {quantity: max_source_packets, value: 120, tol_frac: 0.5}
//	  - law: {id: F3, min: 1.16, max: 2.36}
//	  - sources_prefix: {prefix: 240.0.0.0/4, min_frac: 0.2}
//	  - windows: {max_dropped_frac: 0.01}
//	  - golden: {artifact: table2, file: ../internal/report/testdata/table2.tsv}
//	  - store_parity: {artifacts: [table2, fig4]}
//	  - store_health: {degraded: true}
//
// Numeric comparisons accept equals (exact), value+tol (absolute
// tolerance), value+tol_frac (relative tolerance), and min/max bounds;
// at least one bound is required. A law names a row of report's law
// table by id: min and max replace the row's bound, what the law
// measures stays the table's, and a law that reads n/a fails. Unknown
// kinds, laws and parameter keys are schema errors at load time, so a
// suite cannot green-run a check it never understood.

import (
	"bytes"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/ipaddr"
	"repro/internal/netquant"
	"repro/internal/report"
)

// Assertion is one loaded expected-result check.
type Assertion struct {
	Kind string
	run  func(e *runEnv) Check
}

// Check is one assertion's outcome.
type Check struct {
	Assertion string // kind, with discriminating detail (e.g. quantity)
	Detail    string // measured-vs-expected, human readable
	Pass      bool
}

// runEnv is what assertions evaluate against: the executed study and
// the scenario that produced it.
type runEnv struct {
	sc  *Scenario
	cfg core.Config
	res *core.Result

	// rerun executes the scenario's config with the opposite store
	// mode, for store_parity; memoized so several parity assertions
	// share one run.
	rerun func() (*core.Result, error)
}

// bound is the shared numeric comparator.
type bound struct {
	equals         *float64
	value          *float64
	tol            float64
	tolFrac        float64
	min, max       *float64
	hasTol, hasRel bool
}

func (b *bound) decode(m map[string]any, skip func(string) bool) error {
	for key, v := range m {
		if skip != nil && skip(key) {
			continue
		}
		f, ok := v.(float64)
		if !ok {
			return fmt.Errorf("%s must be a number, got %v", key, v)
		}
		switch key {
		case "equals":
			b.equals = &f
		case "value":
			b.value = &f
		case "tol":
			b.tol, b.hasTol = f, true
		case "tol_frac":
			b.tolFrac, b.hasRel = f, true
		case "min":
			b.min = &f
		case "max":
			b.max = &f
		default:
			return fmt.Errorf("unknown parameter %q", key)
		}
	}
	if b.value != nil && !b.hasTol && !b.hasRel {
		return fmt.Errorf("value requires tol or tol_frac")
	}
	if (b.hasTol || b.hasRel) && b.value == nil {
		return fmt.Errorf("tol/tol_frac require value")
	}
	if b.equals == nil && b.value == nil && b.min == nil && b.max == nil {
		return fmt.Errorf("no bound given (equals, value+tol, min, or max)")
	}
	return nil
}

// check evaluates x against the bound, returning pass and the
// expectation it was held to.
func (b *bound) check(x float64) (bool, string) {
	switch {
	case b.equals != nil:
		return x == *b.equals, fmt.Sprintf("== %g", *b.equals)
	case b.value != nil:
		tol := b.tol
		if b.hasRel {
			tol = math.Abs(*b.value) * b.tolFrac
		}
		return math.Abs(x-*b.value) <= tol, fmt.Sprintf("%g ± %g", *b.value, tol)
	}
	ok := true
	var parts []string
	if b.min != nil {
		ok = ok && x >= *b.min
		parts = append(parts, fmt.Sprintf(">= %g", *b.min))
	}
	if b.max != nil {
		ok = ok && x <= *b.max
		parts = append(parts, fmt.Sprintf("<= %g", *b.max))
	}
	return ok, strings.Join(parts, " and ")
}

// table2Quantity maps snake_case selectors to Table II fields.
var table2Quantity = map[string]func(q netquant.Quantities) float64{
	"valid_packets":       func(q netquant.Quantities) float64 { return q.ValidPackets },
	"unique_links":        func(q netquant.Quantities) float64 { return q.UniqueLinks },
	"max_link_packets":    func(q netquant.Quantities) float64 { return q.MaxLinkPackets },
	"unique_sources":      func(q netquant.Quantities) float64 { return q.UniqueSources },
	"max_source_packets":  func(q netquant.Quantities) float64 { return q.MaxSourcePackets },
	"max_source_fanout":   func(q netquant.Quantities) float64 { return q.MaxSourceFanout },
	"unique_destinations": func(q netquant.Quantities) float64 { return q.UniqueDestinations },
	"max_dest_packets":    func(q netquant.Quantities) float64 { return q.MaxDestPackets },
	"max_dest_fanin":      func(q netquant.Quantities) float64 { return q.MaxDestFanin },
}

// decodeAssertions maps the assert block to runnable checks.
func decodeAssertions(list []any, path string) ([]Assertion, error) {
	out := make([]Assertion, 0, len(list))
	for i, item := range list {
		entry, ok := item.(map[string]any)
		if !ok || len(entry) != 1 {
			return nil, schemaErrf(path, "assert[%d] must be a single-key mapping", i)
		}
		for kind, v := range entry {
			params, _ := v.(map[string]any)
			if v != nil && params == nil {
				return nil, schemaErrf(path, "assert[%d] %s: parameters must be a mapping", i, kind)
			}
			if params == nil {
				params = map[string]any{}
			}
			a, err := decodeAssertion(kind, params)
			if err != nil {
				return nil, schemaErrf(path, "assert[%d] %s: %v", i, kind, err)
			}
			out = append(out, a)
		}
	}
	return out, nil
}

func decodeAssertion(kind string, m map[string]any) (Assertion, error) {
	switch kind {
	case "table2":
		return decodeTable2(m)
	case "law":
		return decodeLaw(m)
	case "sources_prefix":
		return decodeSourcesPrefix(m)
	case "windows":
		return decodeWindows(m)
	case "golden":
		return decodeGolden(m)
	case "store_parity":
		return decodeStoreParity(m)
	case "store_health":
		return decodeStoreHealth(m)
	default:
		return Assertion{}, fmt.Errorf("unknown assertion kind %q", kind)
	}
}

func decodeTable2(m map[string]any) (Assertion, error) {
	quantity, _ := m["quantity"].(string)
	get, ok := table2Quantity[quantity]
	if !ok {
		known := slices.Sorted(maps.Keys(table2Quantity))
		return Assertion{}, fmt.Errorf("quantity must be one of %s", strings.Join(known, ", "))
	}
	snapshot := -1 // all
	if v, ok := m["snapshot"]; ok && v != "all" {
		if err := setInt(&snapshot, v); err != nil {
			return Assertion{}, fmt.Errorf("snapshot: %v", err)
		}
	}
	var b bound
	if err := b.decode(m, func(k string) bool { return k == "quantity" || k == "snapshot" }); err != nil {
		return Assertion{}, err
	}
	name := "table2." + quantity
	return Assertion{Kind: name, run: func(e *runEnv) Check {
		qs := e.res.Report().TableII()
		if snapshot >= 0 {
			if snapshot >= len(qs) {
				return Check{Assertion: name, Detail: fmt.Sprintf("snapshot %d out of range (%d windows)", snapshot, len(qs))}
			}
			qs = qs[snapshot : snapshot+1]
		}
		for i, q := range qs {
			x := get(q)
			if ok, want := b.check(x); !ok {
				return Check{Assertion: name,
					Detail: fmt.Sprintf("snapshot %d: %s = %g, want %s", i, quantity, x, want)}
			}
		}
		_, want := b.check(0)
		return Check{Assertion: name, Pass: true,
			Detail: fmt.Sprintf("%s %s on %d snapshot(s)", quantity, want, len(qs))}
	}}, nil
}

func decodeLaw(m map[string]any) (Assertion, error) {
	id, _ := m["id"].(string)
	laws := report.Laws()
	i := slices.IndexFunc(laws, func(l report.Law) bool { return l.ID == id })
	if i < 0 {
		return Assertion{}, fmt.Errorf("unknown law %q", id)
	}
	l := laws[i]
	for key, v := range m {
		var err error
		switch key {
		case "id":
		case "min":
			err = setFloat(&l.Rule.Min, v)
		case "max":
			err = setFloat(&l.Rule.Max, v)
		default:
			return Assertion{}, fmt.Errorf("unknown parameter %q", key)
		}
		if err != nil {
			return Assertion{}, fmt.Errorf("%s: %v", key, err)
		}
	}
	name := "law " + id
	return Assertion{Kind: name, run: func(e *runEnv) Check {
		r := e.res.Report().Judge(l)
		return Check{Assertion: name, Pass: r.Verdict == report.Pass,
			Detail: fmt.Sprintf("%s: %s, want %s", r.Verdict, r.Measured, l.Rule)}
	}}, nil
}

func decodeSourcesPrefix(m map[string]any) (Assertion, error) {
	prefixStr, _ := m["prefix"].(string)
	prefix, err := ipaddr.ParsePrefix(prefixStr)
	if err != nil {
		return Assertion{}, fmt.Errorf("prefix: %v", err)
	}
	var b bound
	if err := b.decode(m, func(k string) bool { return k == "prefix" }); err != nil {
		return Assertion{}, err
	}
	name := "sources_prefix " + prefixStr
	return Assertion{Kind: name, run: func(e *runEnv) Check {
		for _, snap := range e.res.Study.Snapshots {
			addrs := snap.Addrs()
			in := 0
			for _, a := range addrs {
				if prefix.Contains(a) {
					in++
				}
			}
			frac := float64(in) / float64(len(addrs))
			if ok, want := b.check(frac); !ok {
				return Check{Assertion: name,
					Detail: fmt.Sprintf("snapshot %s: %.3f of %d sources in %v, want %s", snap.Label, frac, len(addrs), prefix, want)}
			}
		}
		_, want := b.check(0)
		return Check{Assertion: name, Pass: true,
			Detail: fmt.Sprintf("source fraction in %v %s on all snapshots", prefix, want)}
	}}, nil
}

func decodeWindows(m map[string]any) (Assertion, error) {
	maxDropped := math.Inf(1)
	conserveNV := true
	for key, v := range m {
		var err error
		switch key {
		case "max_dropped_frac":
			err = setFloat(&maxDropped, v)
		case "nv_conserved":
			b, ok := v.(bool)
			if !ok {
				err = fmt.Errorf("must be a bool")
			} else {
				conserveNV = b
			}
		default:
			return Assertion{}, fmt.Errorf("unknown parameter %q", key)
		}
		if err != nil {
			return Assertion{}, fmt.Errorf("%s: %v", key, err)
		}
	}
	return Assertion{Kind: "windows", run: func(e *runEnv) Check {
		for i, w := range e.res.Windows {
			if conserveNV && w.NV != e.cfg.NV {
				return Check{Assertion: "windows",
					Detail: fmt.Sprintf("window %d: NV = %d, want %d", i, w.NV, e.cfg.NV)}
			}
			frac := float64(w.Dropped) / float64(w.NV+w.Dropped)
			if frac > maxDropped {
				return Check{Assertion: "windows",
					Detail: fmt.Sprintf("window %d: dropped fraction %.4f > %.4f", i, frac, maxDropped)}
			}
		}
		return Check{Assertion: "windows", Pass: true,
			Detail: fmt.Sprintf("%d windows conserve NV=%d", len(e.res.Windows), e.cfg.NV)}
	}}, nil
}

func decodeGolden(m map[string]any) (Assertion, error) {
	artifact, _ := m["artifact"].(string)
	file, _ := m["file"].(string)
	if artifact == "" || file == "" {
		return Assertion{}, fmt.Errorf("artifact and file are required")
	}
	for k := range m {
		if k != "artifact" && k != "file" {
			return Assertion{}, fmt.Errorf("unknown parameter %q", k)
		}
	}
	id := report.ArtifactID(artifact)
	if !slices.Contains(report.All(), id) {
		return Assertion{}, fmt.Errorf("unknown artifact %q", artifact)
	}
	name := "golden " + artifact
	return Assertion{Kind: name, run: func(e *runEnv) Check {
		path := file
		if !filepath.IsAbs(path) {
			path = filepath.Join(filepath.Dir(e.sc.Path), file)
		}
		want, err := os.ReadFile(path)
		if err != nil {
			return Check{Assertion: name, Detail: err.Error()}
		}
		var got bytes.Buffer
		if err := report.WriteTSV(&got, e.res.Report(), id); err != nil {
			return Check{Assertion: name, Detail: err.Error()}
		}
		if !bytes.Equal(got.Bytes(), want) {
			return Check{Assertion: name,
				Detail: fmt.Sprintf("%s render differs from golden %s (%d vs %d bytes)", artifact, file, got.Len(), len(want))}
		}
		return Check{Assertion: name, Pass: true,
			Detail: fmt.Sprintf("%s byte-identical to %s", artifact, file)}
	}}, nil
}

func decodeStoreParity(m map[string]any) (Assertion, error) {
	ids := report.All()
	if v, ok := m["artifacts"]; ok {
		list, ok := v.([]any)
		if !ok {
			return Assertion{}, fmt.Errorf("artifacts must be a list")
		}
		ids = nil
		for _, it := range list {
			s, _ := it.(string)
			id := report.ArtifactID(s)
			if !slices.Contains(report.All(), id) {
				return Assertion{}, fmt.Errorf("unknown artifact %q", it)
			}
			ids = append(ids, id)
		}
	}
	for k := range m {
		if k != "artifacts" {
			return Assertion{}, fmt.Errorf("unknown parameter %q", k)
		}
	}
	return Assertion{Kind: "store_parity", run: func(e *runEnv) Check {
		other, err := e.rerun()
		if err != nil {
			return Check{Assertion: "store_parity", Detail: fmt.Sprintf("opposite-store run: %v", err)}
		}
		for _, id := range ids {
			var a, b bytes.Buffer
			if err := report.WriteTSV(&a, e.res.Report(), id); err != nil {
				return Check{Assertion: "store_parity", Detail: err.Error()}
			}
			if err := report.WriteTSV(&b, other.Report(), id); err != nil {
				return Check{Assertion: "store_parity", Detail: err.Error()}
			}
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				return Check{Assertion: "store_parity",
					Detail: fmt.Sprintf("%s differs between store-backed and in-memory runs", id)}
			}
		}
		return Check{Assertion: "store_parity", Pass: true,
			Detail: fmt.Sprintf("%d artifacts byte-identical across store modes", len(ids))}
	}}, nil
}

// decodeStoreHealth asserts the run's recorded store health — the
// failover scenario uses {degraded: true} to prove the injected
// replica loss actually fired (a parity pass with a fault that never
// landed would test nothing).
func decodeStoreHealth(m map[string]any) (Assertion, error) {
	v, ok := m["degraded"]
	if !ok {
		return Assertion{}, fmt.Errorf("degraded (true/false) is required")
	}
	want, ok := v.(bool)
	if !ok {
		return Assertion{}, fmt.Errorf("degraded must be a bool, got %v", v)
	}
	for k := range m {
		if k != "degraded" {
			return Assertion{}, fmt.Errorf("unknown parameter %q", k)
		}
	}
	return Assertion{Kind: "store_health", run: func(e *runEnv) Check {
		h := e.res.StoreHealth
		if h.Degraded != want {
			return Check{Assertion: "store_health",
				Detail: fmt.Sprintf("degraded = %v (down: %v), want %v", h.Degraded, h.DownNodes, want)}
		}
		detail := "store ran clean"
		if want {
			detail = fmt.Sprintf("store degraded as injected (down: %d node(s), %d failovers)",
				len(h.DownNodes), h.Failovers)
		}
		return Check{Assertion: "store_health", Pass: true, Detail: detail}
	}}, nil
}
