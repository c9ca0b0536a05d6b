package tripled

// crash_test.go is the real-crash gate: the test binary re-executes
// itself as a durable tripled server (testkit.Reexec, the helper-process
// pattern), the test SIGKILLs that process mid-BATCH, restarts it from
// the same data dir, and holds the recovered state to the acked-mutation
// oracle. SIGKILL of a real OS process is the fault the WAL exists for:
// no deferred cleanup, no flushes, no orderly close on any socket.

import (
	"fmt"
	"net"
	"os"
	"testing"
	"time"

	"repro/internal/assoc"
	"repro/internal/testkit"
	"repro/internal/tripled/wal"
)

func TestMain(m *testing.M) {
	testkit.Main(m, map[string]func([]string){"crash-server": runCrashHelper})
}

// runCrashHelper is the subprocess body: a durable server on the data
// dir args[0] that prints its readiness line and parks until killed.
func runCrashHelper(args []string) {
	srv, err := Serve(NewStore(), "127.0.0.1:0",
		WithDataDir(args[0]),
		WithWALSyncPolicy(wal.SyncInterval))
	if err != nil {
		fmt.Fprintln(os.Stderr, "crash helper:", err)
		os.Exit(1)
	}
	rec := srv.Recovery()
	fmt.Printf("LISTEN %s\n", srv.Addr())
	fmt.Printf("RECOVERED snapshot=%d tail=%d torn=%d wall=%s\n",
		rec.SnapshotCells, rec.TailRecords, rec.TornBytes, rec.Wall)
	select {} // hold state until SIGKILL
}

// TestKill9MidBatchRecoversAckedPrefix: a server is SIGKILLed while a
// BATCH sits half-written on the wire. Restarted from the same data
// dir, it must hold exactly the acked mutations — every acknowledged
// batch present, the torn batch absent entirely (atomicity), nothing
// else — byte-identical to a replay oracle. The WAL then keeps working:
// post-recovery writes survive a clean restart too.
func TestKill9MidBatchRecoversAckedPrefix(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess crash test")
	}
	dir := t.TempDir()
	p := testkit.Reexec(t, "crash-server", "LISTEN ", dir)
	addr := p.Ready

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	oracle := NewStore()
	for i := 0; i < 25; i++ {
		cells := make([]Cell, 0, 8)
		for j := 0; j < 8; j++ {
			cells = append(cells, Cell{
				Row: fmt.Sprintf("b%02d", i),
				Col: fmt.Sprintf("c%d", j),
				Val: assoc.Num(float64(i*100 + j)),
			})
		}
		if err := c.PutBatch(cells); err != nil { // acked: must survive
			t.Fatalf("batch %d: %v", i, err)
		}
		for _, cell := range cells {
			oracle.Put(cell.Row, cell.Col, cell.Val)
		}
		if i%5 == 0 {
			if err := c.deleteBatch([]CellKey{{Row: fmt.Sprintf("b%02d", i), Col: "c7"}}); err != nil {
				t.Fatal(err)
			}
			oracle.Delete(fmt.Sprintf("b%02d", i), "c7")
		}
	}
	c.Close()

	// A torn batch: header plus half the body, never completed. The
	// sleep lets the bytes reach the server's reader before the kill.
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(raw, "BATCH\t4\nPUT\ttorn\ta\tn\t1\nPUT\ttorn\tb\tn\t2\n")
	time.Sleep(200 * time.Millisecond)
	if err := p.Kill(); err != nil {
		t.Fatal(err)
	}
	raw.Close()

	p2 := testkit.Reexec(t, "crash-server", "LISTEN ", dir)
	c2, err := Dial(p2.Ready)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	got, err := c2.FetchAssoc("", 64)
	if err != nil {
		t.Fatal(err)
	}
	want := oracle.ToAssoc()
	if got.NNZ() != want.NNZ() {
		t.Fatalf("recovered %d cells, acked oracle has %d", got.NNZ(), want.NNZ())
	}
	diffs := 0
	want.Iterate(func(r, col string, v assoc.Value) bool {
		if gv, ok := got.Get(r, col); !ok || gv != v {
			if diffs++; diffs <= 5 {
				t.Errorf("cell (%s,%s) = %v, oracle %v", r, col, gv, v)
			}
		}
		return true
	})
	if diffs > 0 {
		t.Fatalf("%d recovered cells differ from the acked oracle", diffs)
	}
	if got.HasRow("torn") {
		t.Fatalf("torn batch partially applied: row=%v", got.Row("torn"))
	}

	// The recovered WAL stays appendable, and a second recovery carries
	// the post-crash write forward.
	if err := c2.Put("postcrash", "c", assoc.Num(7)); err != nil {
		t.Fatal(err)
	}
	c2.Close()
	if err := p2.Kill(); err != nil {
		t.Fatal(err)
	}
	p3 := testkit.Reexec(t, "crash-server", "LISTEN ", dir)
	c3, err := Dial(p3.Ready)
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	if v, err := c3.Get("postcrash", "c"); err != nil || v != assoc.Num(7) {
		t.Fatalf("post-crash write lost across second recovery: %v, %v", v, err)
	}
	if n, err := c3.NNZ(); err != nil || n != want.NNZ()+1 {
		t.Fatalf("second recovery NNZ = %d, want %d", n, want.NNZ()+1)
	}
}
