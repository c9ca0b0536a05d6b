package loadgen

import (
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/assoc"
	"repro/internal/faultinject"
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

// TestLoadPhases runs one workload four ways: an in-memory node, a WAL
// `interval` node, a 3-node R=2 cluster, and that cluster with node 1
// blackholed at the halfway barrier. Everywhere, every phase finishes
// every op (R=2 must absorb one fault) and the blackholed one serves at
// least one read from a non-primary replica, or the degraded path never
// ran. Un-raced and not -short, on PUT cells/s within this process: the
// WAL costs <= 1.5x (a buffered write() per request, off the ack path;
// 0.9-1.3x when written) and replication <= 6x (every cell written
// twice; 1.1-2.1x when written), best of three attempts because the
// bars are about the protocol, not a loaded host's scheduler.
func TestLoadPhases(t *testing.T) {
	serve := func(opts ...tripled.Option) string {
		t.Helper()
		srv, err := tripled.Serve(tripled.NewStore(), "127.0.0.1:0", opts...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		return srv.Addr()
	}
	// run returns the phase's PUT cells/s; Run fails unless every op of
	// every client finished. Every phase gets fresh servers, so TOPDEG
	// cost does not compound.
	run := func(phase string, mid func(), dial func(int) (tripled.Conn, error)) float64 {
		t.Helper()
		st, err := Run(Config{Clients: 4, Ops: 1500, Batch: 64, Rows: 20000, Mix: [3]int{70, 25, 5}, TopK: 10, Seed: 1, Mid: mid, Dial: dial})
		if err != nil {
			t.Fatalf("%s phase: %v", phase, err)
		}
		return st.PerSec("PUT")
	}
	single := func(phase string, opts ...tripled.Option) float64 {
		addr := serve(opts...)
		return run(phase, nil, func(int) (tripled.Conn, error) { return tripled.Dial(addr) })
	}

	timed := !testing.Short() && !raceEnabled
	walX, replX := math.Inf(1), math.Inf(1)
	for attempt := 1; attempt <= 3 && (walX > 1.5 || replX > 6); attempt++ {
		mem := single("in-memory")
		wal := single("WAL", tripled.WithDataDir(t.TempDir()), tripled.WithWALSyncPolicy("interval"))
		spec := strings.Join([]string{serve(), serve(), serve()}, ",") + ";replicas=2"
		repl := run("3-node", nil, func(int) (tripled.Conn, error) { return cluster.Dial(spec) })
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

	var proxies []*faultinject.Proxy
	var paddrs []string
	for i := 0; i < 3; i++ {
		p, err := faultinject.New(serve())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		proxies = append(proxies, p)
		paddrs = append(paddrs, p.Addr())
	}
	spec := strings.Join(paddrs, ",") + ";replicas=2;io_timeout=500ms;retries=2"
	var mu sync.Mutex
	var clients []*cluster.Client
	run("blackholed", func() { proxies[1].SetMode(faultinject.Blackhole) }, func(int) (tripled.Conn, error) {
		c, err := cluster.Dial(spec)
		if err != nil {
			return nil, err
		}
		mu.Lock()
		clients = append(clients, c)
		mu.Unlock()
		return c, nil
	})
	failovers := 0
	for _, c := range clients {
		failovers += c.Health().Failovers
	}
	t.Logf("blackholed phase: %d read failovers", failovers)
	if failovers < 1 {
		t.Errorf("blackholed phase recorded %d failovers, want >= 1: the degraded path did not run", failovers)
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
