package cluster

// repair_test.go gates the anti-entropy rejoin path end to end, by
// extending the PR-8 fault soaks with a healing phase: the blackholed
// replica is un-blackholed and Repair must restore it byte-identical
// to the replay oracle's view of its partition, and a replica SIGKILLed
// mid-soak (a real subprocess with a WAL data dir — re-exec'd via the
// helper-process pattern, testkit.Reexec) must restart from its log and
// rejoin the same way. Both run under -race in CI.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/assoc"
	"repro/internal/faultinject"
	"repro/internal/testkit"
	"repro/internal/tripled"
)

func TestMain(m *testing.M) {
	testkit.Main(m, map[string]func([]string){"node": runNodeHelper})
}

// runNodeHelper is the subprocess body: one durable cluster member on
// the data dir args[0], listening on args[1].
func runNodeHelper(args []string) {
	srv, err := tripled.Serve(tripled.NewStore(), args[1],
		tripled.WithDataDir(args[0]))
	if err != nil {
		fmt.Fprintln(os.Stderr, "node helper:", err)
		os.Exit(1)
	}
	fmt.Printf("LISTEN %s\n", srv.Addr())
	select {} // hold until SIGKILL
}

// discoverDown probes distinct keys until the client has marked want
// members down (its fail-stop discovery of the injected fault).
func discoverDown(t *testing.T, c *Client, want int) {
	t.Helper()
	for i := 0; i < 120 && c.downCount() < want; i++ {
		c.Get(fmt.Sprintf("probe-%d", i), "x")
	}
	if got := c.downCount(); got != want {
		t.Fatalf("probes marked %d members down, want %d", got, want)
	}
}

// partitionOracle restricts the replay oracle to the rows whose
// replica set (on the ring the clients actually used) includes node i.
func partitionOracle(addrs []string, i int, oracle *tripled.Store) *tripled.Store {
	ring := buildRing(addrs)
	want := tripled.NewStore()
	oracle.ToAssoc().Iterate(func(r, c string, v assoc.Value) bool {
		for _, rep := range ring.replicasFor(r, 2) {
			if rep == i {
				want.Put(r, c, v)
				break
			}
		}
		return true
	})
	return want
}

// checkPartitionParity holds a healed member's full content (as an
// assoc) byte-identical — canonical sorted log form — to the oracle's
// view of its partition.
func checkPartitionParity(t *testing.T, addrs []string, i int, got *assoc.Assoc, oracle *tripled.Store) {
	t.Helper()
	gotStore := tripled.NewStore()
	if err := gotStore.LoadAssoc(got); err != nil {
		t.Fatal(err)
	}
	var gb, wb bytes.Buffer
	if err := gotStore.WriteLog(&gb); err != nil {
		t.Fatal(err)
	}
	if err := partitionOracle(addrs, i, oracle).WriteLog(&wb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gb.Bytes(), wb.Bytes()) {
		t.Fatalf("node %d: healed content (%d bytes) not byte-identical to its oracle partition (%d bytes)",
			i, gb.Len(), wb.Len())
	}
}

// TestClusterBlackholeHealRepairRejoins: the PR-8 blackhole soak plus
// the healing phase the fail-stop design deferred — once the partition
// lifts, Repair resynchronizes the stale member via RESYNC digests and
// restores it to the ring, byte-identical to the replay oracle.
func TestClusterBlackholeHealRepairRejoins(t *testing.T) {
	const clients = 4
	ops := 120
	if testing.Short() {
		ops = 40
	}
	tc := startCluster(t, 3, true)
	runSoak(t, tc, clients, ops, 300*time.Millisecond, func() {
		tc.Proxy(1).SetMode(faultinject.Blackhole)
	})

	c := tc.client(t, 2, 300*time.Millisecond)
	discoverDown(t, c, 1)
	if h := c.Health(); len(h.Down) != 1 || h.Down[0] != tc.addrs[1] {
		t.Fatalf("health = %+v, want exactly node 1 down", h)
	}
	// A read whose primary is marked down is served by a non-primary: a
	// failover, though no request to the primary failed.
	k := 0
	for c.ring.replicasFor(fmt.Sprint(k), 2)[0] != 1 {
		k++
	}
	before := c.Health().Failovers
	if _, err := c.Get(fmt.Sprint(k), "x"); err != tripled.ErrNotFound || c.Health().Failovers != before+1 {
		t.Fatalf("read of a down primary's key: %v, failovers %d → %d, want one more", err, before, c.Health().Failovers)
	}
	// While the member is still dark, Repair must fail, not hang or lie.
	if repaired, err := c.Repair(); err == nil || len(repaired) != 0 {
		t.Fatalf("Repair of a still-dark member: repaired=%v err=%v", repaired, err)
	}

	tc.Proxy(1).SetMode(faultinject.Forward)
	repaired, err := c.Repair()
	if err != nil {
		t.Fatalf("Repair after heal: %v", err)
	}
	if !reflect.DeepEqual(repaired, []string{tc.addrs[1]}) {
		t.Fatalf("repaired %v, want [%s]", repaired, tc.addrs[1])
	}
	h := c.Health()
	if h.Degraded() || h.Repairs != 1 {
		t.Fatalf("post-repair health = %+v, want healthy with 1 repair", h)
	}

	oracle := replayOracle(clients, ops)
	// The healed replica holds its partition byte-identically...
	checkPartitionParity(t, tc.addrs, 1, tc.Store(1).ToAssoc(), oracle)
	// ...and the repaired client reads the whole ring at parity, with
	// the healed member back in rotation.
	a, top := readAll(t, c)
	diffAgainstOracle(t, a, top, oracle)
	// A fresh client (no repair history) agrees.
	got, gotTop := readAll(t, tc.client(t, 2, 300*time.Millisecond))
	diffAgainstOracle(t, got, gotTop, oracle)
}

// TestClusterKill9RestartWALRepairRejoins: the full durability story in
// one soak — a member running as a real durable subprocess is SIGKILLed
// mid-soak, restarts on the same address from its WAL, and Repair
// brings it from its recovered (acked-prefix) state back to
// byte-parity with the replay oracle.
func TestClusterKill9RestartWALRepairRejoins(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess crash test")
	}
	const clients = 4
	ops := 120
	dir := t.TempDir()

	tc := startCluster(t, 2, false)
	p := testkit.Reexec(t, "node", "LISTEN ", dir, "127.0.0.1:0")
	addr2 := p.Ready
	tc.addrs = append(tc.addrs, addr2)

	runSoak(t, tc, clients, ops, 2*time.Second, func() {
		if err := p.Kill(); err != nil {
			t.Error(err)
		}
	})

	c := tc.client(t, 2, 2*time.Second)
	discoverDown(t, c, 1)

	// Restart from the same WAL on the same address, then rejoin.
	testkit.Reexec(t, "node", "LISTEN ", dir, addr2)
	repaired, err := c.Repair()
	if err != nil {
		t.Fatalf("Repair after WAL restart: %v", err)
	}
	if !reflect.DeepEqual(repaired, []string{addr2}) {
		t.Fatalf("repaired %v, want [%s]", repaired, addr2)
	}
	if h := c.Health(); h.Degraded() || h.Repairs != 1 {
		t.Fatalf("post-repair health = %+v", h)
	}

	oracle := replayOracle(clients, ops)
	got, gotTop := readAll(t, tc.client(t, 2, 2*time.Second))
	diffAgainstOracle(t, got, gotTop, oracle)

	// The healed subprocess holds its partition byte-identically; its
	// content is only reachable over the wire.
	nc, err := tripled.Dial(addr2)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	a, err := nc.FetchAssoc("", 128)
	if err != nil {
		t.Fatal(err)
	}
	checkPartitionParity(t, tc.addrs, 2, a, oracle)
}

// TestRepairLeavesTheNextRowAlone: repair reads one row at a time, and
// the row after it in key order must never stand in for it. A member
// that missed row r but holds r\x01 — the very next key — gets r copied
// from its healthy replica and keeps r\x01 as it was; copying r from a
// holder that has since lost it removes r and writes nothing of r\x01;
// and clearing r from a member that holds only r\x01 deletes nothing.
func TestRepairLeavesTheNextRowAlone(t *testing.T) {
	const r, next = "r", "r\x01"
	tc := startCluster(t, 2, false)
	holder, target := tc.Store(0), tc.Store(1)
	for _, s := range []*tripled.Store{holder, target} {
		if err := s.PutBatch([]tripled.Cell{
			{Row: next, Col: "a", Val: assoc.Num(1)},
			{Row: next, Col: "z", Val: assoc.Num(2)},
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := holder.Put(r, "b", assoc.Str("x")); err != nil {
		t.Fatal(err)
	}

	c := tc.client(t, 2, 2*time.Second)
	c.markDown(1, errors.New("missed the write of r"))
	if repaired, err := c.Repair(); err != nil || !reflect.DeepEqual(repaired, []string{tc.addrs[1]}) {
		t.Fatalf("Repair = %v, %v", repaired, err)
	}
	var hb, tb bytes.Buffer
	holder.WriteLog(&hb)
	target.WriteLog(&tb)
	if !bytes.Equal(hb.Bytes(), tb.Bytes()) {
		t.Fatalf("repaired member holds\n%q\nits healthy replica\n%q", tb.Bytes(), hb.Bytes())
	}

	holder.Delete(r, "b")
	tcl, err := tripled.Dial(tc.addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	defer tcl.Close()
	if err := c.copyRow(r, 0, tcl); err != nil {
		t.Fatal(err)
	}
	if got := target.ToAssoc(); got.HasRow(r) || got.NNZ() != 2 {
		t.Fatalf("copying the vanished row %q left %v on the member", r, got.Row(r))
	}

	loneNode := startCluster(t, 1, false)
	lone := loneNode.Store(0)
	lone.Put(next, "a", assoc.Num(1))
	cl, err := tripled.Dial(loneNode.addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := replaceRow(cl, r, nil); err != nil {
		t.Fatal(err)
	}
	if v, ok := lone.Get(next, "a"); !ok || v != assoc.Num(1) || lone.NNZ() != 1 {
		t.Fatalf("clearing the absent row %q touched %q: %v, %v, %d cells", r, next, v, ok, lone.NNZ())
	}
}
