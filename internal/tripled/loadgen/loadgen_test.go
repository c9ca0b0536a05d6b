package loadgen

import (
	"errors"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/assoc"
	"repro/internal/faultinject"
	"repro/internal/testkit"
	"repro/internal/tripled"
	"repro/internal/tripled/cluster"
)

func TestParseMix(t *testing.T) {
	mix, err := ParseMix("70, 25,5")
	if err != nil || mix != [3]int{70, 25, 5} {
		t.Fatalf("ParseMix: %v, %v", mix, err)
	}
	for _, bad := range []string{"70,25", "a,b,c", "0,0,0", "-1,2,3"} {
		if _, err := ParseMix(bad); err == nil {
			t.Errorf("ParseMix(%q) accepted", bad)
		}
	}
}

// TestRunRefusesBadSizes: a client count below one or a negative batch
// size is refused by name before any client dials, not a makeslice
// panic.
func TestRunRefusesBadSizes(t *testing.T) {
	dial := func(int) (tripled.Conn, error) { return nil, errors.New("dialled") }
	for field, cfg := range map[string]Config{
		"Clients": {Clients: -1, Ops: 10, Mix: [3]int{1, 0, 0}, Dial: dial},
		"Batch":   {Clients: 1, Ops: 10, Batch: -1, Mix: [3]int{1, 0, 0}, Dial: dial},
	} {
		if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("Run with a bad %s: %v, want an error naming it", field, err)
		}
	}
}

// TestRunMidBarrier proves the Mid hook's contract: it fires exactly
// once, after every client has issued ops/2 operations and before any
// issues the next one — so a fault injected there lands at a
// deterministic position in each client's script.
func TestRunMidBarrier(t *testing.T) {
	srv, err := tripled.Serve(tripled.NewStore(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const clients, ops = 4, 100
	var midCalls atomic.Int32
	var opsAtMid atomic.Int64
	counts := make([]atomic.Int64, clients)
	st, err := Run(Config{
		Clients: clients,
		Ops:     ops,
		Batch:   8,
		Rows:    500,
		Mix:     [3]int{60, 30, 10},
		Seed:    7,
		Dial: func(id int) (tripled.Conn, error) {
			c, err := tripled.Dial(srv.Addr())
			if err != nil {
				return nil, err
			}
			return &countingConn{Conn: c, n: &counts[id]}, nil
		},
		Mid: func() {
			midCalls.Add(1)
			var total int64
			for i := range counts {
				total += counts[i].Load()
			}
			opsAtMid.Store(total)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := midCalls.Load(); got != 1 {
		t.Fatalf("Mid ran %d times, want 1", got)
	}
	// At the barrier every client has issued exactly ops/2 workload
	// items: each loop iteration contributes one cell, one GET, or one
	// TOPDEG, and the pre-barrier flush pushes pending cells through
	// before Mid runs.
	if at := opsAtMid.Load(); at != clients*ops/2 {
		t.Fatalf("ops issued at Mid = %d, want exactly %d", at, clients*ops/2)
	}
	total := 0
	for _, kind := range OpKinds {
		total += len(st.Lat[kind])
		if st.Percentile(kind, 0.99) < st.Percentile(kind, 0.50) {
			t.Fatalf("%s p99 < p50", kind)
		}
	}
	if total == 0 {
		t.Fatal("no samples recorded")
	}
}

// TestLoadPhases runs one workload three ways: an in-memory node, a WAL
// `interval` node and a 3-node R=2 cluster; every phase finishes every
// op. (That cluster with node 1 blackholed at the halfway barrier runs
// through the command, in cmd/tripled-load's
// TestClusterChaosAndRestartRuns.) Un-raced and not -short, on PUT
// cells/s within this process: the WAL costs <= 1.5x (a buffered
// write() per request, off the ack path; 0.9-1.3x when written) and
// replication <= 6x (every cell written twice; 1.1-2.1x when written),
// best of three attempts because the bars are about the protocol, not a
// loaded host's scheduler.
func TestLoadPhases(t *testing.T) {
	// phase returns the PUT cells/s of a run on a fresh fleet, so TOPDEG
	// cost does not compound: one node dialled directly, or the cluster
	// client at R=2. Run fails unless every op of every client finished.
	phase := func(name string, cfg faultinject.FleetConfig) float64 {
		t.Helper()
		f, err := faultinject.NewFleet(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		dial := func(int) (tripled.Conn, error) { return tripled.Dial(f.Addrs()[0]) }
		if cfg.Nodes > 1 {
			dial = func(int) (tripled.Conn, error) { return cluster.Dial(f.Spec(2)) }
		}
		st, err := Run(Config{Clients: 4, Ops: 1500, Batch: 64, Rows: 20000, Mix: [3]int{70, 25, 5}, TopK: 10, Seed: 1, Dial: dial})
		if err != nil {
			t.Fatalf("%s phase: %v", name, err)
		}
		return st.PerSec("PUT")
	}

	timed := !testing.Short() && !testkit.RaceEnabled
	walX, replX := math.Inf(1), math.Inf(1)
	for attempt := 1; attempt <= 3 && (walX > 1.5 || replX > 6); attempt++ {
		mem := phase("in-memory", faultinject.FleetConfig{Nodes: 1})
		wal := phase("WAL", faultinject.FleetConfig{Nodes: 1, WALRoot: t.TempDir(), Options: []tripled.Option{tripled.WithWALSyncPolicy("interval")}})
		repl := phase("3-node", faultinject.FleetConfig{Nodes: 3})
		walX, replX = min(walX, mem/wal), min(replX, mem/repl)
		if !timed {
			break
		}
		t.Logf("attempt %d: WAL overhead %.2fx, replication overhead %.2fx on PUT cells/s", attempt, mem/wal, mem/repl)
	}
	if timed && walX > 1.5 {
		t.Errorf("WAL overhead %.2fx exceeds 1.5x: durability crept onto the ingest hot path", walX)
	}
	if timed && replX > 6 {
		t.Errorf("replication overhead %.2fx exceeds 6x", replX)
	}
}

// countingConn counts workload items through the wire (cells, GETs,
// TOPDEGs) so the test can see how much work ran before the barrier.
type countingConn struct {
	tripled.Conn
	n *atomic.Int64
}

func (c *countingConn) PutBatch(cells []tripled.Cell) error {
	c.n.Add(int64(len(cells)))
	return c.Conn.PutBatch(cells)
}

func (c *countingConn) Get(row, col string) (assoc.Value, error) {
	c.n.Add(1)
	return c.Conn.Get(row, col)
}

func (c *countingConn) TopRowsByDegree(k int) ([]tripled.RowDegree, error) {
	c.n.Add(1)
	return c.Conn.TopRowsByDegree(k)
}
