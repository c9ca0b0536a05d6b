package tripled

// durable_test.go covers the WAL-backed server from inside the package:
// log-then-apply recovery round trips, snapshot compaction (including
// compaction racing live writers), the anti-entropy digest surface, and
// the key-validation boundary that keeps tab/newline out of the log
// format. The process-level SIGKILL tests live in crash_test.go; the
// frame-level truncation sweep lives in the wal package.

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/assoc"
	"repro/internal/tripled/wal"
)

// durableServe starts a WAL-backed server over a fresh store and
// returns server, client, and the live store for direct inspection.
func durableServe(t *testing.T, dir string, opts ...Option) (*Server, *Client, *Store) {
	t.Helper()
	store := NewStore()
	srv, err := Serve(store, "127.0.0.1:0", append([]Option{WithDataDir(dir)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return srv, c, store
}

// compact forces snapshot-then-truncate compaction of a durable
// server's WAL, holding the durability mutex as a mutation's threshold
// compaction does.
func compact(s *Server) error {
	s.durMu.Lock()
	defer s.durMu.Unlock()
	return s.compactLocked()
}

// storeLog renders a store's canonical sorted persistence log — the
// byte-identical comparison form used across the durability tests.
func storeLog(t *testing.T, s *Store) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := s.WriteLog(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// recoverStore replays a data dir into a fresh store by starting (and
// stopping) a durable server on it, returning the recovered state with
// its invariants checked.
func recoverStore(t *testing.T, dir string) (*Store, Recovery) {
	t.Helper()
	store := NewStore()
	srv, err := Serve(store, "127.0.0.1:0", WithDataDir(dir))
	if err != nil {
		t.Fatalf("recovery serve: %v", err)
	}
	rec := srv.Recovery()
	srv.Close()
	verifyStoreInvariants(t, store)
	return store, rec
}

func TestDurableServerRecoversMutations(t *testing.T) {
	dir := t.TempDir()
	_, c, store := durableServe(t, dir)

	if err := c.Put("alpha", "x", assoc.Num(1)); err != nil {
		t.Fatal(err)
	}
	if err := c.PutBatch([]Cell{
		{Row: "alpha", Col: "y", Val: assoc.Str("hello")},
		{Row: "beta", Col: "x", Val: assoc.Num(2)},
		{Row: "gamma", Col: "z", Val: assoc.Num(3)},
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.deleteBatch([]CellKey{{Row: "beta", Col: "x"}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Put("alpha", "x", assoc.Num(9)); err != nil { // overwrite
		t.Fatal(err)
	}
	want := storeLog(t, store)

	got, rec := recoverStore(t, dir)
	if !rec.Enabled || rec.HadSnapshot || rec.TailRecords != 4 {
		t.Fatalf("recovery = %+v, want 4 tail records and no snapshot", rec)
	}
	if !bytes.Equal(storeLog(t, got), want) {
		t.Fatalf("recovered store differs from the live store:\n got %q\nwant %q",
			storeLog(t, got), want)
	}
}

func TestDurableCompactionSnapshotThenTail(t *testing.T) {
	dir := t.TempDir()
	srv, c, store := durableServe(t, dir, func(s *Server) { s.walCompactBytes = -1 })
	for i := 0; i < 50; i++ {
		if err := c.Put(fmt.Sprintf("r%02d", i), "c", assoc.Num(float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := compact(srv); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, wal.SnapshotName)); err != nil {
		t.Fatalf("no snapshot after Compact: %v", err)
	}
	// Post-compaction mutations land in the fresh tail.
	if err := c.Put("post", "c", assoc.Num(99)); err != nil {
		t.Fatal(err)
	}
	if err := c.deleteBatch([]CellKey{{Row: "r00", Col: "c"}}); err != nil {
		t.Fatal(err)
	}
	want := storeLog(t, store)

	got, rec := recoverStore(t, dir)
	if !rec.HadSnapshot || rec.SnapshotCells != 50 || rec.TailRecords != 2 {
		t.Fatalf("recovery = %+v, want snapshot of 50 cells + 2 tail records", rec)
	}
	if !bytes.Equal(storeLog(t, got), want) {
		t.Fatal("recovered store differs after snapshot + tail replay")
	}
}

// TestWALCompactionUnderConcurrentWriters is the durability race gate:
// snapshot-then-truncate compaction keeps firing (tiny auto threshold
// plus an explicit Compact loop) while concurrent clients ingest, and
// neither the live store nor a recovery from the data dir may lose or
// duplicate a single cell versus an unsnapshotted twin server fed the
// identical workload. Run under -race in CI.
func TestWALCompactionUnderConcurrentWriters(t *testing.T) {
	const writers = 6
	ops := 150
	if testing.Short() {
		ops = 40
	}
	dir := t.TempDir()
	srv, _, durStore := durableServe(t, dir, func(s *Server) { s.walCompactBytes = 2048 })
	twin, _ := serveTest(t) // in-memory twin, same workload, no WAL

	var wg sync.WaitGroup
	errs := make(chan error, 2*writers)
	stopCompact := make(chan struct{})
	compactDone := make(chan error, 1)
	go func() { // explicit compactions racing the auto threshold
		for {
			select {
			case <-stopCompact:
				compactDone <- nil
				return
			default:
				if err := compact(srv); err != nil {
					compactDone <- fmt.Errorf("compact: %w", err)
					return
				}
				time.Sleep(time.Millisecond)
			}
		}
	}()
	for _, target := range []*Server{srv, twin} {
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(addr string, w int) {
				defer wg.Done()
				c, err := Dial(addr)
				if err != nil {
					errs <- err
					return
				}
				defer c.Close()
				// Per-writer disjoint keyspace: both servers converge to the
				// same state regardless of interleaving.
				for i := 0; i < ops; i++ {
					row := fmt.Sprintf("w%d-r%d", w, i%17)
					switch i % 5 {
					case 0:
						err = c.PutBatch([]Cell{
							{Row: row, Col: "a", Val: assoc.Num(float64(i))},
							{Row: row, Col: "b", Val: assoc.Str(fmt.Sprintf("v%d", i))},
						})
					case 3:
						err = c.deleteBatch([]CellKey{{Row: row, Col: "b"}})
					default:
						err = c.Put(row, "a", assoc.Num(float64(i)))
					}
					if err != nil {
						errs <- fmt.Errorf("writer %d op %d: %w", w, i, err)
						return
					}
				}
			}(target.Addr(), w)
		}
	}
	wg.Wait()
	close(stopCompact)
	if err := <-compactDone; err != nil {
		t.Fatal(err)
	}
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	twinLog := storeLog(t, twin.store)
	if !bytes.Equal(storeLog(t, durStore), twinLog) {
		t.Fatal("durable store diverged from the unsnapshotted twin")
	}
	srv.Close()
	got, _ := recoverStore(t, dir)
	if !bytes.Equal(storeLog(t, got), twinLog) {
		t.Fatal("recovery after compaction-under-load diverged from the twin")
	}
}

// --- key validation (log-format injection) ---

func TestStoreRejectsLogBreakingKeys(t *testing.T) {
	s := NewStore()
	for _, bad := range []string{"a\tb", "a\nb", "a\rb"} {
		var bk *BadKeyError
		if err := s.Put(bad, "c", assoc.Num(1)); !errors.As(err, &bk) {
			t.Errorf("Put(row=%q) = %v, want BadKeyError", bad, err)
		}
		if err := s.Put("r", bad, assoc.Num(1)); !errors.As(err, &bk) {
			t.Errorf("Put(col=%q) = %v, want BadKeyError", bad, err)
		}
	}
	// PutBatch is all-or-nothing: one bad cell poisons the whole batch.
	err := s.PutBatch([]Cell{
		{Row: "good", Col: "c", Val: assoc.Num(1)},
		{Row: "bad\nrow", Col: "c", Val: assoc.Num(2)},
	})
	var bk *BadKeyError
	if !errors.As(err, &bk) {
		t.Fatalf("PutBatch with bad key = %v, want BadKeyError", err)
	}
	if s.NNZ() != 0 {
		t.Fatalf("PutBatch applied %d cells despite the bad key", s.NNZ())
	}
	// A store that rejected the keys writes a log that replays cleanly.
	s.Put("ok", "c", assoc.Num(1))
	var b bytes.Buffer
	if err := s.WriteLog(&b); err != nil {
		t.Fatal(err)
	}
	if _, err := NewStore().replayLog(&b, nil); err != nil {
		t.Fatal(err)
	}
}

func TestProtocolRejectsCarriageReturnKey(t *testing.T) {
	// A tab in a key shifts the fields of its line, so the client's key
	// check keeps it off the wire; a carriage return used to pass the
	// wire and corrupt the persistence log. It must be refused at parse
	// time, before WAL or store.
	srv, c := serveTest(t)
	if err := c.Put("evil\rrow", "c", assoc.Num(1)); Classify(err) != ClassFatal {
		t.Fatalf("PUT with \\r key: err=%v class=%v, want fatal", err, Classify(err))
	}
	// The refusal happens before apply: nothing was stored.
	if n, err := c.NNZ(); err != nil || n != 0 {
		t.Fatalf("NNZ = %d, %v after rejected PUT", n, err)
	}
	// Raw wire: a BATCH containing one bad key applies nothing.
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "BATCH\t2\nPUT\tgood\tc\tn\t1\nPUT\tbad\rkey\tc\tn\t2\n")
	buf := make([]byte, 256)
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	n, _ := conn.Read(buf)
	if resp := string(buf[:n]); !strings.HasPrefix(resp, "ERR") {
		t.Fatalf("batch with bad key answered %q, want ERR", resp)
	}
	if n, err := c.NNZ(); err != nil || n != 0 {
		t.Fatalf("NNZ = %d, %v after rejected batch, want 0 (atomic)", n, err)
	}
}

// TestTabValueSurvivesEveryLine pins what one mutation grammar means
// for a string value holding a tab: the value is the rest of its PUT
// line, so a raw PUT and a raw BATCH line store it whole, GET and CELLS
// read it back whole, and so does a server restarted from the WAL, and
// from a Compact snapshot. A data dir spelling a mutation any other way
// — the old "P" records and snapshot lines — fails Serve, naming the
// line.
func TestTabValueSurvivesEveryLine(t *testing.T) {
	dir := t.TempDir()
	srv, err := Serve(NewStore(), "127.0.0.1:0", WithDataDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	rd := bufio.NewReader(conn)
	for req, want := range map[string]string{
		"PUT\tr\tput\ts\ta\tb\n":                               "OK\n",
		"BATCH\t2\nPUT\tr\tbatch\ts\t\tc\td\t\nDEL\tr\tnone\n": "OK 2\n",
	} {
		fmt.Fprint(conn, req)
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		if resp, err := rd.ReadString('\n'); resp != want {
			t.Fatalf("%q answered %q, %v; want %q", req, resp, err, want)
		}
	}
	want := []Cell{{Row: "r", Col: "batch", Val: assoc.Str("\tc\td\t")}, {Row: "r", Col: "put", Val: assoc.Str("a\tb")}}
	check := func(what string, srv *Server) {
		t.Helper()
		c, err := Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		for _, cell := range want {
			if v, err := c.Get(cell.Row, cell.Col); err != nil || v != cell.Val {
				t.Errorf("%s: GET %s = %q, %v; want %q", what, cell.Col, v.Str, err, cell.Val.Str)
			}
		}
		if got, err := c.RowCells("r"); err != nil || !cellsEqual(got, want) {
			t.Errorf("%s: CELLS = %q, %v; want %q", what, got, err, want)
		}
	}
	check("live", srv)
	srv.Close()
	for _, restart := range []string{"WAL restart", "Compact + restart"} {
		srv, err = Serve(NewStore(), "127.0.0.1:0", WithDataDir(dir))
		if err != nil {
			t.Fatalf("%s: %v", restart, err)
		}
		if snap := srv.Recovery().HadSnapshot; snap != (restart == "Compact + restart") {
			t.Errorf("%s: recovery had a snapshot: %v", restart, snap)
		}
		check(restart, srv)
		if err := compact(srv); err != nil {
			t.Fatal(err)
		}
		srv.Close()
	}

	const old = "P\tr\tc\tn\t1"
	for _, where := range []string{"record", "snapshot"} {
		dir := t.TempDir()
		lg, err := wal.Open(dir, wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if where == "record" {
			err = lg.Append([]byte(old + "\n"))
		} else {
			err = lg.Compact(func(w io.Writer) error { _, err := io.WriteString(w, old+"\n"); return err })
		}
		if err != nil {
			t.Fatal(err)
		}
		lg.Close()
		srv, err := Serve(NewStore(), "127.0.0.1:0", WithDataDir(dir))
		if err == nil {
			srv.Close()
			t.Fatalf("Serve over a %s line %q succeeded", where, old)
		}
		if !strings.Contains(err.Error(), strconv.Quote(old)) {
			t.Errorf("Serve over a %s line %q: error %q does not name the line", where, old, err)
		}
	}
}

// --- anti-entropy digests ---

func TestDigestsInsertionOrderIndependent(t *testing.T) {
	// Cell i is (row-(i%40), c(i%7)): 200 distinct cells, so any order
	// of the puts stores the same table.
	fill := func(s *Store, order []int) {
		for _, i := range order {
			s.Put(fmt.Sprintf("row-%03d", i%40), fmt.Sprintf("c%d", i%7), assoc.Num(float64(i)))
		}
		s.Put("strv", "c", assoc.Str("text value"))
	}
	sa, sb := NewStore(), NewStore()
	fill(sa, rand.New(rand.NewSource(1)).Perm(200))
	fill(sb, rand.New(rand.NewSource(2)).Perm(200))
	const nb = 32
	if got, want := sb.BucketDigests(nb), sa.BucketDigests(nb); !bucketsEqual(got, want) {
		t.Fatal("bucket digests depend on insertion order")
	}
	ra, rb := sa.RowDigests(nb, -1), sb.RowDigests(nb, -1)
	if len(ra) != len(rb) {
		t.Fatalf("row digest counts differ: %d vs %d", len(ra), len(rb))
	}
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatalf("row digest %d differs: %+v vs %+v", i, ra[i], rb[i])
		}
	}
	// Any single-cell difference must surface in the digests.
	sb.Put("row-007", "c0", assoc.Num(-1))
	if bucketsEqual(sb.BucketDigests(nb), sa.BucketDigests(nb)) {
		t.Fatal("digests blind to a changed cell value")
	}
	sa.Put("row-007", "c0", assoc.Num(-1)) // re-sync
	sb.Delete("strv", "c")
	if bucketsEqual(sb.BucketDigests(nb), sa.BucketDigests(nb)) {
		t.Fatal("digests blind to a deleted cell")
	}
}

func bucketsEqual(a, b []BucketDigest) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestResyncProtocolMatchesStore(t *testing.T) {
	srv, c := serveTest(t)
	store := srv.store
	for i := 0; i < 100; i++ {
		if err := c.Put(fmt.Sprintf("r%03d", i), fmt.Sprintf("c%d", i%3), assoc.Num(float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	const nb = 16
	got, err := c.BucketDigests(nb)
	if err != nil {
		t.Fatal(err)
	}
	if !bucketsEqual(got, store.BucketDigests(nb)) {
		t.Fatal("RESYNC DIGEST differs from the store's own digests")
	}
	all, err := c.RowDigests(nb, -1)
	if err != nil {
		t.Fatal(err)
	}
	wantAll := store.RowDigests(nb, -1)
	if len(all) != len(wantAll) {
		t.Fatalf("RESYNC ROWS -1 returned %d rows, want %d", len(all), len(wantAll))
	}
	for i := range all {
		if all[i] != wantAll[i] {
			t.Fatalf("row digest %d: %+v vs %+v", i, all[i], wantAll[i])
		}
	}
	// Per-bucket queries partition the all-rows view exactly.
	total := 0
	for b := 0; b < nb; b++ {
		rows, err := c.RowDigests(nb, b)
		if err != nil {
			t.Fatal(err)
		}
		for _, rd := range rows {
			if DigestBucket(rd.Row, nb) != b {
				t.Fatalf("row %q served from bucket %d, belongs to %d", rd.Row, b, DigestBucket(rd.Row, nb))
			}
		}
		total += len(rows)
	}
	if total != len(wantAll) {
		t.Fatalf("per-bucket rows sum to %d, want %d", total, len(wantAll))
	}
	// Malformed resync requests answer ERR, not a hung block.
	for _, bad := range []string{"RESYNC\tDIGEST\t0", "RESYNC\tDIGEST\tx", "RESYNC\tROWS\t16\t16", "RESYNC\tNOPE\t4"} {
		resp, err := c.roundTrip(bad)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(resp, "ERR") {
			t.Errorf("%q answered %q, want ERR", bad, resp)
		}
	}
}
