package daemon

// daemon_test.go proves the resident study's core contract: ingesting
// the same N windows + M months incrementally — in any order, with
// concurrent pollers reading the whole time — converges to artifacts
// byte-identical to a from-scratch batch run (the acceptance parity
// gate, exercised under -race in CI), invalidation stays fine-grained
// through the daemon path, and a store-backed daemon recovers its
// exact state from the ledger after a restart.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/assoc"
	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/telescope"
	"repro/internal/tripled"
)

// testConfig is a seconds-scale study small enough to run twice (batch
// + incremental) per test: the incremental run re-renders dependent
// artifacts after every ingest, so months and snapshots are trimmed to
// keep the whole-study recompute count bounded under -race.
func testConfig() core.Config {
	cfg := core.QuickConfig()
	cfg.Radiation.NumSources = 3000
	cfg.Radiation.Months = 7
	cfg.NV = 1 << 12
	cfg.LeafSize = 1 << 8
	cfg.Workers = 1
	cfg.SnapshotTimes = cfg.SnapshotTimes[:2] // June + July fall inside the 7 months
	return cfg
}

// batchArtifacts runs the from-scratch batch oracle and renders every
// artifact in both encodings.
func batchArtifacts(t *testing.T, cfg core.Config) map[report.ArtifactID]Artifact {
	t.Helper()
	p, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	g := res.Report()
	out := make(map[report.ArtifactID]Artifact)
	for _, id := range report.All() {
		var tsv, js bytes.Buffer
		if err := report.WriteTSV(&tsv, g, id); err != nil {
			t.Fatalf("batch %s: %v", id, err)
		}
		if err := report.WriteJSON(&js, g, id); err != nil {
			t.Fatalf("batch %s: %v", id, err)
		}
		out[id] = Artifact{TSV: tsv.Bytes(), JSON: js.Bytes()}
	}
	return out
}

func diffArtifacts(t *testing.T, want map[report.ArtifactID]Artifact, got *Rendered) {
	t.Helper()
	for _, id := range report.All() {
		a := got.Artifacts[id]
		if a.Err != "" {
			t.Errorf("%s: daemon artifact errored: %s", id, a.Err)
			continue
		}
		if !bytes.Equal(a.TSV, want[id].TSV) {
			t.Errorf("%s: incremental TSV diverges from batch:\ndaemon:\n%s\nbatch:\n%s",
				id, firstDiffContext(a.TSV, want[id].TSV), firstDiffContext(want[id].TSV, a.TSV))
		}
		if !bytes.Equal(a.JSON, want[id].JSON) {
			t.Errorf("%s: incremental JSON diverges from batch", id)
		}
	}
}

// firstDiffContext returns a few lines around the first difference so
// failures do not dump whole artifacts.
func firstDiffContext(a, b []byte) string {
	al, bl := strings.Split(string(a), "\n"), strings.Split(string(b), "\n")
	for i := range al {
		if i >= len(bl) || al[i] != bl[i] {
			lo := i - 1
			if lo < 0 {
				lo = 0
			}
			hi := i + 2
			if hi > len(al) {
				hi = len(al)
			}
			return fmt.Sprintf("(line %d) %s", i+1, strings.Join(al[lo:hi], "\n"))
		}
	}
	return "(prefix equal, lengths differ)"
}

// TestIncrementalParityWithBatch is the acceptance gate: snapshots
// ingested before months, months in reverse order — a deliberately
// scrambled arrival order — with 8 concurrent pollers reading the
// published snapshot throughout, converges byte-for-byte to the batch
// oracle. CI runs this under -race, which also makes the pollers a
// soundness proof for the atomic publish.
func TestIncrementalParityWithBatch(t *testing.T) {
	cfg := testConfig()
	want := batchArtifacts(t, cfg)

	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				time.Sleep(200 * time.Microsecond) // poll, don't starve the mutator on small runners
				snap := d.Snapshot()
				// Whatever cut we see must be internally consistent:
				// every artifact present, bytes immutable (the race
				// detector proves the latter).
				if len(snap.Artifacts) != len(report.All()) {
					t.Errorf("published snapshot missing artifacts: %d", len(snap.Artifacts))
					return
				}
				for _, a := range snap.Artifacts {
					if a.Err == "" && len(a.TSV) == 0 {
						t.Error("artifact with neither bytes nor error")
						return
					}
				}
			}
		}()
	}

	// Scrambled arrival: all snapshots first (fig4/5 temporals error
	// until months land), then months newest-first.
	for _, ts := range cfg.SnapshotTimes {
		if err := d.IngestSnapshot(ts); err != nil {
			t.Fatal(err)
		}
	}
	for m := cfg.Radiation.Months - 1; m >= 0; m-- {
		if err := d.IngestMonth(m); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	snap := d.Snapshot()
	if snap.Months != cfg.Radiation.Months || snap.Snapshots != len(cfg.SnapshotTimes) {
		t.Fatalf("study size %d/%d, want %d/%d", snap.Months, snap.Snapshots,
			cfg.Radiation.Months, len(cfg.SnapshotTimes))
	}
	diffArtifacts(t, want, snap)

	// Idempotence: re-ingesting everything changes nothing.
	seq := snap.Seq
	for m := 0; m < cfg.Radiation.Months; m++ {
		if err := d.IngestMonth(m); err != nil {
			t.Fatal(err)
		}
	}
	if got := d.Snapshot().Seq; got != seq {
		t.Errorf("re-ingest bumped seq %d -> %d; duplicate ingest must be a no-op", seq, got)
	}
}

// TestParityInAnyConfiguredSnapshotOrder: the study is time-ordered
// whoever assembles it. SnapshotTimes reversed, with one time given
// twice, renders the bytes of the chronological duplicate-free
// configuration from the batch run and from the daemon alike — "the
// first snapshot" of Figure 5 is the earliest, and the duplicate is
// captured once.
func TestParityInAnyConfiguredSnapshotOrder(t *testing.T) {
	sorted := testConfig()
	want := batchArtifacts(t, sorted)

	cfg := testConfig()
	june, july := sorted.SnapshotTimes[0], sorted.SnapshotTimes[1]
	cfg.SnapshotTimes = []time.Time{july, june, july}
	batch := batchArtifacts(t, cfg)
	for _, id := range report.All() {
		if !bytes.Equal(batch[id].TSV, want[id].TSV) || !bytes.Equal(batch[id].JSON, want[id].JSON) {
			t.Errorf("%s: batch run of %v diverges from the chronological study:\n%s",
				id, cfg.SnapshotTimes, firstDiffContext(batch[id].TSV, want[id].TSV))
		}
	}

	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for _, ts := range cfg.SnapshotTimes {
		if err := d.IngestSnapshot(ts); err != nil {
			t.Fatal(err)
		}
	}
	for m := 0; m < cfg.Radiation.Months; m++ {
		if err := d.IngestMonth(m); err != nil {
			t.Fatal(err)
		}
	}
	snap := d.Snapshot()
	if snap.Snapshots != 2 {
		t.Errorf("daemon holds %d snapshots, want 2", snap.Snapshots)
	}
	diffArtifacts(t, want, snap)
}

// TestOneInstantTwoZonesIsOneSnapshot: a snapshot is named by its UTC
// label everywhere — the study, the store's tel/<label>/ rows, the
// ledger. The same instant written with two zone offsets, in either
// order, is one snapshot, and a restart recovers that one.
func TestOneInstantTwoZonesIsOneSnapshot(t *testing.T) {
	cfg := testConfig()
	utc := cfg.SnapshotTimes[0]
	plus2 := utc.In(time.FixedZone("", 2*60*60))
	label := utc.Format("20060102-150405")
	for _, order := range [][]time.Time{{plus2, utc}, {utc, plus2}} {
		srv, err := tripled.Serve(tripled.NewStore(), "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		cfg.StoreAddr = srv.Addr()
		d, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, ts := range order {
			if err := d.IngestSnapshot(ts); err != nil {
				t.Fatal(err)
			}
		}
		before := d.Snapshot()
		if before.Snapshots != 1 || before.Seq != 2 {
			t.Errorf("%v: %d snapshots at seq %d, want one snapshot ingested once (seq 2)", order, before.Snapshots, before.Seq)
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}

		db, err := tripled.Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		all, err := db.FetchAssoc("", 1024)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range all.RowKeys() {
			if !strings.HasPrefix(row, telescope.SnapshotRowPrefix(label)) && row != ledgerSnapPrefix+label {
				t.Fatalf("%v: store row %q is not under the UTC label %s", order, row, label)
			}
		}

		d2, err := New(cfg)
		if err != nil {
			t.Fatalf("recovery: %v", err)
		}
		defer d2.Close()
		after := d2.Snapshot()
		if after.Snapshots != 1 {
			t.Errorf("%v: recovered %d snapshots, want 1", order, after.Snapshots)
		}
		for _, id := range report.All() {
			if !bytes.Equal(before.Artifacts[id].TSV, after.Artifacts[id].TSV) || before.Artifacts[id].Err != after.Artifacts[id].Err {
				t.Errorf("%v: %s differs across the restart", order, id)
			}
		}
	}
}

// TestDaemonFineGrainedInvalidation pins the incremental cost model
// end to end: once the study is loaded, one more month re-renders
// Table I and the temporal figures but never re-executes Table II or
// Figure 3.
func TestDaemonFineGrainedInvalidation(t *testing.T) {
	cfg := testConfig()
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for _, ts := range cfg.SnapshotTimes {
		if err := d.IngestSnapshot(ts); err != nil {
			t.Fatal(err)
		}
	}
	for m := 0; m < cfg.Radiation.Months-1; m++ {
		if err := d.IngestMonth(m); err != nil {
			t.Fatal(err)
		}
	}
	t2, f3 := d.Runs(report.Table2), d.Runs(report.Fig3)
	t1 := d.Runs(report.Table1)
	if t2 == 0 || t1 == 0 {
		t.Fatal("artifacts never ran during load")
	}
	if err := d.IngestMonth(cfg.Radiation.Months - 1); err != nil {
		t.Fatal(err)
	}
	if got := d.Runs(report.Table2); got != t2 {
		t.Errorf("table2 ran %d -> %d on a month-only ingest", t2, got)
	}
	if got := d.Runs(report.Fig3); got != f3 {
		t.Errorf("fig3 ran %d -> %d on a month-only ingest", f3, got)
	}
	if got := d.Runs(report.Table1); got != t1+1 {
		t.Errorf("table1 ran %d -> %d on a month ingest, want +1", t1, got)
	}
}

// TestDaemonRecovery restarts a store-backed daemon and requires the
// replayed study to serve byte-identical artifacts.
func TestDaemonRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("two store-backed incremental studies")
	}
	srv, err := tripled.Serve(tripled.NewStore(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cfg := testConfig()
	cfg.StoreAddr = srv.Addr()

	d1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for m := 0; m < 4; m++ {
		if err := d1.IngestMonth(m); err != nil {
			t.Fatal(err)
		}
	}
	for _, ts := range cfg.SnapshotTimes[:2] {
		if err := d1.IngestSnapshot(ts); err != nil {
			t.Fatal(err)
		}
	}
	before := d1.Snapshot()
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := New(cfg)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer d2.Close()
	after := d2.Snapshot()
	if after.Months != 4 || after.Snapshots != 2 {
		t.Fatalf("recovered %d months / %d snapshots, want 4/2", after.Months, after.Snapshots)
	}
	for _, id := range report.All() {
		b, a := before.Artifacts[id], after.Artifacts[id]
		if b.Err != a.Err {
			t.Errorf("%s: error state changed across restart: %q vs %q", id, b.Err, a.Err)
			continue
		}
		if !bytes.Equal(b.TSV, a.TSV) || !bytes.Equal(b.JSON, a.JSON) {
			t.Errorf("%s: recovered artifact differs from pre-restart render", id)
		}
	}
}

// TestRecoveryRefusesLedgerUnitsOutsideTheStudy: a ledger row replays
// through the checks the ingest API applies. A month outside the study,
// a month that is no whole number, or a snapshot outside the study
// fails New — not retryably, naming the row — where recovery used to
// ingest it: month 12 of a 7-month study joined it and gave Table I a
// 2021-02-01 row, although IngestMonth(12) refuses.
func TestRecoveryRefusesLedgerUnitsOutsideTheStudy(t *testing.T) {
	cfg := testConfig()
	for _, bad := range []struct {
		row, col string
		v        assoc.Value
	}{
		{ledgerMonthPrefix + "x", "month", assoc.Num(12)},
		{ledgerMonthPrefix + "y", "month", assoc.Num(1.5)},
		{ledgerSnapPrefix + "z", "time", assoc.Str("2021-06-16T12:00:00Z")},
	} {
		srv, err := tripled.Serve(tripled.NewStore(), "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		db, err := tripled.Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Put(bad.row, bad.col, bad.v); err != nil {
			t.Fatal(err)
		}
		db.Close()

		cfg.StoreAddr = srv.Addr()
		d, err := New(cfg)
		if err == nil {
			snap := d.Snapshot()
			d.Close()
			t.Errorf("ledger row %s = %v: recovered %d months / %d snapshots, want New to refuse", bad.row, bad.v, snap.Months, snap.Snapshots)
			continue
		}
		if tripled.Retryable(err) || !strings.Contains(err.Error(), bad.row) {
			t.Errorf("ledger row %s = %v: New = %v (retryable %v), want a fatal error naming the row", bad.row, bad.v, err, tripled.Retryable(err))
		}
	}
	d, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.IngestMonth(12); err == nil || !strings.Contains(err.Error(), "outside the 7-month study") {
		t.Errorf("IngestMonth(12) = %v, want the range refusal", err)
	}
}

// TestDaemonHTTP drives the whole surface over a real listener:
// health, index, artifact formats, error paths, ingest, and the drain
// protocol.
func TestDaemonHTTP(t *testing.T) {
	cfg := testConfig()
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Serve(d, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + s.Addr()

	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, body
	}
	post := func(path, body string) (int, []byte) {
		t.Helper()
		resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, b
	}

	if code, body := get("/healthz"); code != 200 || !bytes.Contains(body, []byte(`"ok"`)) {
		t.Fatalf("healthz: %d %s", code, body)
	}
	if code, body := get("/artifacts"); code != 200 || !bytes.Contains(body, []byte("fig7_fig8")) {
		t.Fatalf("index: %d %s", code, body)
	}
	if code, _ := get("/artifacts/fig9"); code != 404 {
		t.Errorf("unknown artifact: %d, want 404", code)
	}
	// Empty study: fig5 needs a snapshot.
	if code, _ := get("/artifacts/fig5"); code != 503 {
		t.Errorf("fig5 on empty study: %d, want 503", code)
	}
	// Table I renders (empty) even with no data.
	if code, body := get("/artifacts/table1?format=tsv"); code != 200 || !bytes.HasPrefix(body, []byte("gn_start")) {
		t.Errorf("empty table1: %d %s", code, body)
	}
	if code, _ := get("/artifacts/table1?format=xml"); code != 400 {
		t.Errorf("bad format: %d, want 400", code)
	}

	// Ingest a month by index and another by label; both must land.
	if code, body := post("/ingest/month", `{"month": 0}`); code != 200 {
		t.Fatalf("ingest month: %d %s", code, body)
	}
	label := cfg.StudyStart.AddDate(0, 1, 0).Format("2006-01")
	if code, body := post("/ingest/month", fmt.Sprintf(`{"month": %q}`, label)); code != 200 {
		t.Fatalf("ingest month by label: %d %s", code, body)
	}
	if code, body := post("/ingest/snapshot",
		fmt.Sprintf(`{"time": %q}`, cfg.SnapshotTimes[0].Format(time.RFC3339))); code != 200 {
		t.Fatalf("ingest snapshot: %d %s", code, body)
	}
	if code, _ := post("/ingest/month", `{"month": 9999}`); code != 400 {
		t.Errorf("out-of-range month: %d, want 400", code)
	}
	if code, _ := post("/ingest/snapshot", `{"time": "not-a-time"}`); code != 400 {
		t.Errorf("bad time: %d, want 400", code)
	}

	var status struct {
		Months    int `json:"months"`
		Snapshots int `json:"snapshots"`
	}
	if code, body := get("/status"); code != 200 {
		t.Fatalf("status: %d", code)
	} else if err := json.Unmarshal(body, &status); err != nil {
		t.Fatalf("status JSON: %v", err)
	}
	if status.Months != 2 || status.Snapshots != 1 {
		t.Errorf("status = %+v, want 2 months 1 snapshot", status)
	}
	// table2 serves real JSON now.
	if code, body := get("/artifacts/table2"); code != 200 || !bytes.Contains(body, []byte(`"artifact": "table2"`)) {
		t.Errorf("table2 after ingest: %d %s", code, body)
	}

	// Drain: after Shutdown returns, ingest is rejected and the
	// listener is closed.
	if err := s.Shutdown(t.Context()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := d.IngestMonth(3); err != errDraining {
		t.Errorf("ingest after drain: %v, want errDraining", err)
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Error("listener still accepting after Shutdown")
	}
}
