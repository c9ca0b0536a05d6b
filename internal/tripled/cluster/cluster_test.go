package cluster

// cluster_test.go gates the tentpole guarantees. The two soak tests
// follow the repo's oracle pattern (tripled's soak_test.go): N clients
// hammer a 3-node R=2 cluster with scripted, per-client-disjoint
// mutations while one node is killed (or blackholed) mid-run, and the
// surviving cluster state must diff byte-identical against a
// single-threaded replay of every mutation into a 1-stripe single-node
// store. Run under -race in CI.

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/assoc"
	"repro/internal/faultinject"
	"repro/internal/tripled"
)

// --- ring ---

func TestRingDeterministicDistinctBalanced(t *testing.T) {
	addrs := []string{"10.0.0.1:7000", "10.0.0.2:7000", "10.0.0.3:7000"}
	r1 := buildRing(addrs, DefaultVNodes)
	r2 := buildRing(addrs, DefaultVNodes)

	counts := make([]int, len(addrs))
	for i := 0; i < 10000; i++ {
		key := fmt.Sprintf("hf/2020-%02d/src-%d", i%12, i)
		reps := r1.replicasFor(key, 2)
		if !reflect.DeepEqual(reps, r2.replicasFor(key, 2)) {
			t.Fatalf("placement of %q differs between identical rings", key)
		}
		if len(reps) != 2 || reps[0] == reps[1] {
			t.Fatalf("replicas of %q = %v, want 2 distinct nodes", key, reps)
		}
		counts[reps[0]]++
	}
	for i, n := range counts {
		// 10000 keys over 3 nodes: each primary share should be within
		// a loose band of the fair 3333 — vnodes keep the split sane.
		if n < 2000 || n > 5000 {
			t.Fatalf("node %d owns %d of 10000 primaries; ring badly unbalanced %v", i, n, counts)
		}
	}
	if reps := r1.replicasFor("k", 5); len(reps) != 3 {
		t.Fatalf("replicas clamp to membership: got %v", reps)
	}
}

func TestParseSpec(t *testing.T) {
	cfg, err := parseSpec(" a:1 , b:2 ,c:3 ; replicas=3 ; vnodes=16 ; io_timeout=250ms ; retries=2 ")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cfg.Addrs, []string{"a:1", "b:2", "c:3"}) ||
		cfg.Replicas != 3 || cfg.VNodes != 16 ||
		cfg.IOTimeout != 250*time.Millisecond || cfg.Retry.Attempts != 2 {
		t.Fatalf("parsed %+v", cfg)
	}
	for _, bad := range []string{"", " ; ", "a:1;replicas=0", "a:1;what=3", "a:1;io_timeout=fast"} {
		if _, err := parseSpec(bad); err == nil {
			t.Errorf("parseSpec(%q) accepted", bad)
		}
	}
	if IsClusterSpec("a:1") || !IsClusterSpec("a:1,b:2") || !IsClusterSpec("a:1;replicas=1") {
		t.Error("IsClusterSpec misclassifies")
	}
}

// --- test cluster scaffolding ---

// testCluster is a fleet and the members the clients dial: the
// fleet's addresses (its proxies' when chaos is on), plus any outsider.
type testCluster struct {
	*faultinject.Fleet
	addrs []string
}

// startCluster brings up n in-process nodes of four stripes.
func startCluster(t *testing.T, n int, chaos bool) *testCluster {
	t.Helper()
	f, err := faultinject.NewFleet(faultinject.FleetConfig{Nodes: n, Stripes: 4, Proxied: chaos})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	return &testCluster{Fleet: f, addrs: f.Addrs()}
}

// fastRetry keeps fault-path tests quick: two tries, millisecond backoff.
func fastRetry() tripled.Retry {
	return tripled.Retry{Attempts: 2, Base: time.Millisecond, Max: 5 * time.Millisecond}
}

func (tc *testCluster) client(t *testing.T, replicas int, ioTimeout time.Duration) *Client {
	t.Helper()
	c, err := newClient(Config{
		Addrs:     tc.addrs,
		Replicas:  replicas,
		IOTimeout: ioTimeout,
		Retry:     fastRetry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// readAll reads the whole cluster back through c; given a fresh client,
// its own fail-stop discovery of any dead node included.
func readAll(t *testing.T, c *Client) (*assoc.Assoc, []tripled.RowDegree) {
	t.Helper()
	a, err := c.FetchAssoc("", 128)
	if err != nil {
		t.Fatalf("cluster fetch: %v", err)
	}
	top, err := c.TopRowsByDegree(10)
	if err != nil {
		t.Fatalf("cluster topdeg: %v", err)
	}
	return a, top
}

// diffAgainstOracle is the byte-parity verdict: every cell of the
// oracle present and equal in the cluster view, no extras, same top-k.
func diffAgainstOracle(t *testing.T, got *assoc.Assoc, gotTop []tripled.RowDegree, oracle *tripled.Store) {
	t.Helper()
	want := oracle.ToAssoc()
	if got.NNZ() != want.NNZ() {
		t.Errorf("cluster NNZ = %d, oracle %d", got.NNZ(), want.NNZ())
	}
	diffs := 0
	want.Iterate(func(r, c string, v assoc.Value) bool {
		if gv, ok := got.Get(r, c); !ok || gv != v {
			if diffs++; diffs <= 5 {
				t.Errorf("cell (%s,%s) = %v, oracle %v", r, c, gv, v)
			}
		}
		return true
	})
	got.Iterate(func(r, c string, v assoc.Value) bool {
		if _, ok := want.Get(r, c); !ok {
			if diffs++; diffs <= 5 {
				t.Errorf("cluster has stray cell (%s,%s) = %v", r, c, v)
			}
		}
		return true
	})
	if diffs > 0 {
		t.Fatalf("%d cells differ from the single-node replay oracle", diffs)
	}
	if !reflect.DeepEqual(gotTop, oracle.TopRowsByDegree(10)) {
		t.Errorf("top-k by degree differs from the oracle:\n got %v\nwant %v", gotTop, oracle.TopRowsByDegree(10))
	}
}

// --- scripted soak (mirrors tripled soak_test.go, on the Conn surface) ---

type soakOp struct {
	kind string // "put", "publish", "batch", "get", "fetch", "topdeg"
	row  string // the row, or the prefix of a publish or fetch
	col  string
	val  assoc.Value
	n    int
}

// soakScript mixes the Conn surface: point writes and reads, batches,
// the degree table, and the study's own traffic — tables published and
// fetched under a prefix. A client republishes under one of a few
// prefixes of its own, so a publish deletes what the last one left: the
// cells a returning node may still hold that no healthy replica vouches
// for.
func soakScript(id, ops int) []soakOp {
	rng := rand.New(rand.NewSource(int64(2000 + id)))
	mine := func() string { return fmt.Sprintf("c%d-r%d", id, rng.Intn(40)) }
	anyRow := func() string { return fmt.Sprintf("c%d-r%d", rng.Intn(8), rng.Intn(40)) }
	cols := []string{"packets", "class", "intent", "tags"}
	out := make([]soakOp, 0, ops)
	for i := 0; i < ops; i++ {
		switch r := rng.Intn(100); {
		case r < 35:
			out = append(out, soakOp{kind: "put", row: mine(), col: cols[rng.Intn(len(cols))], val: assoc.Num(float64(rng.Intn(1000)))})
		case r < 45:
			out = append(out, soakOp{kind: "publish", row: fmt.Sprintf("c%d-t%d/", id, rng.Intn(3)), n: rng.Intn(12)})
		case r < 55:
			out = append(out, soakOp{kind: "batch", n: 1 + rng.Intn(20)})
		case r < 70:
			out = append(out, soakOp{kind: "get", row: anyRow(), col: cols[rng.Intn(len(cols))]})
		case r < 90:
			out = append(out, soakOp{kind: "fetch", row: fmt.Sprintf("c%d-", rng.Intn(8)) + []string{"r1", "t"}[rng.Intn(2)]})
		default:
			out = append(out, soakOp{kind: "topdeg", n: 1 + rng.Intn(10)})
		}
	}
	return out
}

// publishTable expands a "publish" op deterministically from its
// position: up to n rows of a few cells each (n = 0 publishes an empty
// table, which clears the prefix).
func publishTable(id, opIdx, n int) *assoc.Assoc {
	rng := rand.New(rand.NewSource(int64(id)*1e6 + int64(opIdx)))
	a := assoc.New()
	for i := 0; i < n; i++ {
		a.Set(fmt.Sprintf("r%d", rng.Intn(16)), fmt.Sprintf("p%d", rng.Intn(4)), assoc.Num(float64(rng.Intn(1000))))
	}
	return a
}

func batchCells(id, opIdx, n int) []tripled.Cell {
	rng := rand.New(rand.NewSource(int64(id)*1e6 + int64(opIdx)))
	cells := make([]tripled.Cell, 0, n)
	for i := 0; i < n; i++ {
		cells = append(cells, tripled.Cell{
			Row: fmt.Sprintf("c%d-r%d", id, rng.Intn(40)),
			Col: fmt.Sprintf("b%d", rng.Intn(6)),
			Val: assoc.Num(float64(rng.Intn(1000))),
		})
	}
	return cells
}

func runOp(c *Client, id, i int, op soakOp) error {
	var err error
	switch op.kind {
	case "put":
		err = c.Put(op.row, op.col, op.val)
	case "publish":
		err = c.PublishAssoc(op.row, publishTable(id, i, op.n), 4)
	case "batch":
		err = c.PutBatch(batchCells(id, i, op.n))
	case "get":
		if _, err = c.Get(op.row, op.col); err == tripled.ErrNotFound {
			err = nil
		}
	case "fetch":
		_, err = c.FetchAssoc(op.row, 8)
	case "topdeg":
		_, err = c.TopRowsByDegree(op.n)
	}
	if err != nil {
		return fmt.Errorf("client %d op %d (%s): %w", id, i, op.kind, err)
	}
	return nil
}

// replayOracle replays every client's mutations, in per-client order,
// into a single-node 1-stripe store — the ground truth the cluster
// must match because per-client mutation keyspaces are disjoint. A
// publish replays as what it means: clear the prefix, then put the
// table under it.
func replayOracle(clients, ops int) *tripled.Store {
	oracle := tripled.NewStoreStripes(1)
	for id := 0; id < clients; id++ {
		for i, op := range soakScript(id, ops) {
			switch op.kind {
			case "put":
				oracle.Put(op.row, op.col, op.val)
			case "publish":
				oracle.ToAssoc().Iterate(func(row, col string, _ assoc.Value) bool {
					if strings.HasPrefix(row, op.row) {
						oracle.Delete(row, col)
					}
					return true
				})
				publishTable(id, i, op.n).Iterate(func(row, col string, v assoc.Value) bool {
					oracle.Put(op.row+row, col, v)
					return true
				})
			case "batch":
				for _, cell := range batchCells(id, i, op.n) {
					oracle.Put(cell.Row, cell.Col, cell.Val)
				}
			}
		}
	}
	return oracle
}

// runSoak drives `clients` concurrent cluster clients through their
// scripts, pausing everyone at the halfway barrier so injectFault can
// take a node out at a deterministic op boundary.
func runSoak(t *testing.T, tc *testCluster, clients, ops int, ioTimeout time.Duration, injectFault func()) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	halfway := make(chan struct{}) // closed when every client reached ops/2
	resume := make(chan struct{})  // closed after the fault is injected
	var atHalf sync.WaitGroup
	atHalf.Add(clients)
	go func() {
		atHalf.Wait()
		close(halfway)
	}()
	go func() {
		<-halfway
		injectFault()
		close(resume)
	}()
	for id := 0; id < clients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := newClient(Config{Addrs: tc.addrs, Replicas: 2, IOTimeout: ioTimeout, Retry: fastRetry()})
			if err != nil {
				atHalf.Done()
				errs <- err
				return
			}
			defer c.Close()
			script := soakScript(id, ops)
			for i, op := range script {
				if i == len(script)/2 {
					atHalf.Done()
					<-resume
				}
				if err := runOp(c, id, i, op); err != nil {
					errs <- err
					return
				}
			}
		}(id)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestClusterKillNodeMidSoak: 8 clients, 3 nodes, R=2; node 2's server
// process dies (listener and live connections torn down) once every
// client reaches its halfway op. Every client must ride through on
// retries and failover, and the surviving cluster contents must be
// byte-identical to the single-node replay oracle.
func TestClusterKillNodeMidSoak(t *testing.T) {
	const clients = 8
	ops := 300
	if testing.Short() {
		ops = 80
	}
	tc := startCluster(t, 3, false)
	runSoak(t, tc, clients, ops, 2*time.Second, func() {
		tc.Server(2).Close()
	})
	got, gotTop := readAll(t, tc.client(t, 2, 2*time.Second))
	diffAgainstOracle(t, got, gotTop, replayOracle(clients, ops))
}

// TestClusterBlackholeMidSoak: same shape, but the node does not die —
// it silently stops answering (chaos proxy blackhole), the failure
// only deadlines can detect. Short I/O timeouts keep the test fast.
func TestClusterBlackholeMidSoak(t *testing.T) {
	const clients = 4
	ops := 120
	if testing.Short() {
		ops = 40
	}
	tc := startCluster(t, 3, true)
	runSoak(t, tc, clients, ops, 300*time.Millisecond, func() {
		tc.Proxy(1).SetMode(faultinject.Blackhole)
	})
	got, gotTop := readAll(t, tc.client(t, 2, 300*time.Millisecond))
	diffAgainstOracle(t, got, gotTop, replayOracle(clients, ops))
}

// TestClusterPublishFetchSurvivesNodeLoss: the pipeline's actual table
// path — PublishAssoc then FetchAssoc — stays byte-identical across a
// node killed between publish and fetch.
func TestClusterPublishFetchSurvivesNodeLoss(t *testing.T) {
	tc := startCluster(t, 3, false)
	c := tc.client(t, 2, 2*time.Second)

	table := assoc.New()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		table.Set(fmt.Sprintf("src-%04d", rng.Intn(400)), fmt.Sprintf("col-%d", rng.Intn(8)), assoc.Num(float64(i)))
	}
	if err := c.PublishAssoc("hf/2020-05/", table, 64); err != nil {
		t.Fatal(err)
	}
	check := func(cl *Client) {
		got, err := cl.FetchAssoc("hf/2020-05/", 64)
		if err != nil {
			t.Fatal(err)
		}
		if got.NNZ() != table.NNZ() {
			t.Fatalf("fetched %d cells, published %d", got.NNZ(), table.NNZ())
		}
		table.Iterate(func(r, col string, v assoc.Value) bool {
			if gv, ok := got.Get(r, col); !ok || gv != v {
				t.Fatalf("cell (%s,%s) = %v, want %v", r, col, gv, v)
			}
			return true
		})
	}
	check(c)
	tc.Server(0).Close()
	check(tc.client(t, 2, 2*time.Second)) // fresh client discovers the dead node itself
}

// TestClusterStaleRing: lose as many nodes as the replication factor
// and every full-coverage op — a fetch, the degree table, a publish's
// prefix clear — must refuse with ErrStaleRing instead of serving (or
// silently dropping, or half-clearing) partial data.
func TestClusterStaleRing(t *testing.T) {
	tc := startCluster(t, 3, false)
	c := tc.client(t, 2, time.Second)
	if err := c.Put("r1", "c", assoc.Num(1)); err != nil {
		t.Fatal(err)
	}
	tc.Server(0).Close()
	tc.Server(1).Close()

	// Once both dead nodes are discovered, every complete-coverage read
	// must classify stale-ring.
	discoverDown(t, c, 2)
	table := assoc.New()
	table.Set("r", "c", assoc.Num(2))
	for name, op := range map[string]func() error{
		"fetch":   func() error { _, err := c.FetchAssoc("", 64); return err },
		"topdeg":  func() error { _, err := c.TopRowsByDegree(10); return err },
		"publish": func() error { return c.PublishAssoc("t/", table, 64) },
	} {
		if err := op(); tripled.Classify(err) != tripled.ClassStaleRing {
			t.Errorf("%s with R nodes down: err=%v class=%v, want stale-ring", name, err, tripled.Classify(err))
		}
	}
	h := c.Health()
	if !h.Degraded() || len(h.Down) != 2 {
		t.Fatalf("health = %+v, want 2 down", h)
	}
}
