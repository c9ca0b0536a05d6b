package daemon

// degraded_test.go proves the satellite contract for a store-backed
// daemon whose store is not there yet: studyd must come up serving
// (degraded) instead of dying, reject ingest with 503 while
// disconnected, surface `store: degraded` on /healthz and /status, and
// flip to `store: ok` — replaying any ledger — once the store appears.

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/tripled"
)

func getJSON(t *testing.T, url string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("GET %s: %v in %q", url, err, body)
	}
	return resp.StatusCode, m
}

func TestDaemonDegradedStoreStartup(t *testing.T) {
	// A store behind a proxy that closes every connection on accept (Drop,
	// the port-closed failure) until it forwards again. The proxy holds
	// the address for the whole test, so no other listener can take it.
	f, err := faultinject.NewFleet(faultinject.FleetConfig{Nodes: 1, Proxied: true})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.Proxy(0).SetMode(faultinject.Drop)
	addr := f.Addrs()[0]
	cfg := testConfig()
	cfg.Radiation.Months = 3
	cfg.SnapshotTimes = nil
	cfg.StoreAddr = addr

	// No server behind addr yet: New must come up degraded, not die.
	d, err := New(cfg)
	if err != nil {
		t.Fatalf("daemon with unreachable store refused to start: %v", err)
	}
	defer d.Close()
	if st := d.storeState(); st.State != StoreDegraded {
		t.Fatalf("store state at startup = %+v, want degraded", st)
	}

	// Ingest is deferred with the typed error (503 over HTTP).
	if err := d.IngestMonth(0); !errors.Is(err, errStoreDegraded) {
		t.Fatalf("ingest while degraded: %v, want errStoreDegraded", err)
	}

	s, err := Serve(d, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.srv.Close()
	base := "http://" + s.Addr()

	if code, m := getJSON(t, base+"/healthz"); code != http.StatusOK || m["store"] != "degraded" {
		t.Fatalf("/healthz while degraded: %d %v", code, m)
	}
	if _, m := getJSON(t, base+"/status"); m["store"].(map[string]any)["state"] != "degraded" {
		t.Fatalf("/status while degraded: %v", m["store"])
	}
	resp, err := http.Post(base+"/ingest/month", "application/json", strings.NewReader(`{"month": 0}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("ingest while degraded returned %d, want 503", resp.StatusCode)
	}

	// The store arrives late; the reconnect loop must find it and flip
	// to ok without a daemon restart.
	f.Proxy(0).SetMode(faultinject.Forward)
	deadline := time.Now().Add(15 * time.Second)
	for d.storeState().State != StoreOK {
		if time.Now().After(deadline) {
			t.Fatalf("store never recovered: %+v", d.storeState())
		}
		time.Sleep(25 * time.Millisecond)
	}
	if code, m := getJSON(t, base+"/healthz"); code != http.StatusOK || m["store"] != "ok" {
		t.Fatalf("/healthz after recovery: %d %v", code, m)
	}

	// Ingest now works end to end, including the durable ledger row.
	if err := d.IngestMonth(0); err != nil {
		t.Fatalf("ingest after recovery: %v", err)
	}
	c, err := tripled.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ledger, err := c.FetchAssoc(ledgerMonthPrefix, 16)
	if err != nil {
		t.Fatal(err)
	}
	if ledger.NRows() != 1 {
		t.Fatalf("ledger rows after recovery ingest: %v", ledger.RowKeys())
	}
}

// TestDaemonClusterStoreReportsDegraded: a daemon over a cluster spec
// that loses one replica keeps ingesting (quorum holds) but reports
// store: degraded with the lost member named.
func TestDaemonClusterStoreReportsDegraded(t *testing.T) {
	f, err := faultinject.NewFleet(faultinject.FleetConfig{Nodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	cfg := testConfig()
	cfg.Radiation.Months = 3
	cfg.SnapshotTimes = nil
	cfg.StoreAddr = f.Spec(2) + ";io_timeout=500ms;retries=2"

	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if st := d.storeState(); st.State != StoreOK {
		t.Fatalf("store state = %+v, want ok", st)
	}
	if err := d.IngestMonth(0); err != nil {
		t.Fatal(err)
	}

	f.Server(2).Close()
	if err := d.IngestMonth(1); err != nil {
		t.Fatalf("ingest with one replica down: %v", err)
	}
	st := d.storeState()
	if st.State != StoreDegraded {
		t.Fatalf("store state after replica loss = %+v, want degraded", st)
	}
	if lost := f.Addrs()[2]; !slices.Contains(st.Down, lost) {
		t.Fatalf("down list %v does not name the lost member %s", st.Down, lost)
	}
}
