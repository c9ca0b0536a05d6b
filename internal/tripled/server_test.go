package tripled

// server_test.go covers the production-shaping of the service: the
// BATCH, CELLS and KEYS verbs, batch atomicity, the idle-connection
// shutdown fix, and the per-connection read deadline.

import (
	"fmt"
	"net"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/assoc"
	"repro/internal/testkit"
)

func serveTest(t *testing.T, opts ...Option) (*Server, *Client) {
	t.Helper()
	srv, err := Serve(NewStore(), "127.0.0.1:0", opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return srv, c
}

// deleteBatch removes every addressed cell in one BATCH round trip.
// Absent cells are not an error.
func (c *Client) deleteBatch(keys []CellKey) error {
	p := c.StartPipeline(len(keys))
	for _, k := range keys {
		p.Delete(k.Row, k.Col)
	}
	return p.Close()
}

func TestBatchPutDelete(t *testing.T) {
	srv, c := serveTest(t)
	cells := make([]Cell, 0, 100)
	for i := 0; i < 100; i++ {
		cells = append(cells, Cell{Row: "r" + strconv.Itoa(i), Col: "packets", Val: assoc.Num(float64(i))})
	}
	if err := c.PutBatch(cells); err != nil {
		t.Fatal(err)
	}
	if nnz := srv.store.NNZ(); nnz != 100 {
		t.Fatalf("NNZ after batch = %d", nnz)
	}
	if v, _ := srv.store.Get("r42", "packets"); v.Num != 42 {
		t.Errorf("r42 = %v", v)
	}
	keys := make([]CellKey, 0, 50)
	for i := 0; i < 50; i++ {
		keys = append(keys, CellKey{Row: "r" + strconv.Itoa(i), Col: "packets"})
	}
	keys = append(keys, CellKey{Row: "absent", Col: "absent"}) // not an error
	if err := c.deleteBatch(keys); err != nil {
		t.Fatal(err)
	}
	if nnz := srv.store.NNZ(); nnz != 50 {
		t.Fatalf("NNZ after delete batch = %d", nnz)
	}
	verifyStoreInvariants(t, srv.store)
}

// TestBatchOrderSameCell checks that a PUT/DEL/PUT sequence on one cell
// inside one BATCH applies in order.
func TestBatchOrderSameCell(t *testing.T) {
	srv, c := serveTest(t)
	p := c.StartPipeline(10)
	p.Put("r", "c", assoc.Num(1))
	p.Delete("r", "c")
	p.Put("r", "c", assoc.Num(3))
	p.Put("x", "c", assoc.Num(9))
	p.Delete("x", "c")
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if v, ok := srv.store.Get("r", "c"); !ok || v.Num != 3 {
		t.Errorf("cell after PUT/DEL/PUT = %v, %v", v, ok)
	}
	if _, ok := srv.store.Get("x", "c"); ok {
		t.Error("cell after PUT/DEL still present")
	}
}

// TestBatchAtomicOnMalformedBody: a malformed line anywhere in the body
// must reject the whole batch (one ERR, nothing applied) and leave the
// connection usable.
func TestBatchAtomicOnMalformedBody(t *testing.T) {
	srv, c := serveTest(t)
	fmt.Fprintf(c.w, "BATCH\t3\nPUT\ta\tb\tn\t1\nWAT\nPUT\tc\td\tn\t2\n")
	resp, err := c.recv()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(resp, "ERR ") {
		t.Fatalf("malformed batch got %q", resp)
	}
	if nnz := srv.store.NNZ(); nnz != 0 {
		t.Errorf("malformed batch applied %d cells", nnz)
	}
	// Connection still in sync.
	if err := c.Put("ok", "ok", assoc.Num(1)); err != nil {
		t.Fatalf("connection unusable after batch ERR: %v", err)
	}
}

// TestBatchOversizedCountDisconnects: a count over the server limit is
// refused with ERR and a clean disconnect, never a body read.
func TestBatchOversizedCountDisconnects(t *testing.T) {
	_, c := serveTest(t, func(s *Server) { s.maxBatch = 8 })
	resp, err := c.roundTrip("BATCH\t1000000000")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(resp, "ERR ") {
		t.Fatalf("oversized batch got %q", resp)
	}
	if _, err := c.roundTrip("NNZ"); err == nil {
		t.Error("connection survived oversized batch count")
	}
}

func TestCellsExportRoundTrip(t *testing.T) {
	srv, c := serveTest(t)
	a := assoc.New()
	for i := 0; i < 40; i++ {
		row := "ip" + strconv.Itoa(i)
		a.Set(row, "packets", assoc.Num(float64(i)*1.5))
		a.Set(row, "class", assoc.Str("scanner"))
	}
	if err := c.PublishAssoc("t1/", a, 16); err != nil {
		t.Fatal(err)
	}
	if srv.store.NNZ() != a.NNZ() {
		t.Fatalf("published %d cells, store has %d", a.NNZ(), srv.store.NNZ())
	}
	back, err := c.FetchAssoc("t1/", 7)
	if err != nil {
		t.Fatal(err)
	}
	if back.NNZ() != a.NNZ() {
		t.Fatalf("fetched %d cells, want %d", back.NNZ(), a.NNZ())
	}
	a.Iterate(func(r, col string, v assoc.Value) bool {
		if got, ok := back.Get(r, col); !ok || got != v {
			t.Errorf("cell (%s,%s) = %v, want %v", r, col, got, v)
		}
		return true
	})
}

// TestKeysPageIsCellsPageRows: KEYS is CELLS' page without its cells.
// Over a real connection, on rows of one to three cells under two
// prefixes, every (start, end, limit, cursor) — bounds empty, bare
// prefixes or row keys, cursors live, dead, below start or past end —
// answers the row keys of the CELLS page with the same arguments, and
// FetchKeys at any page size reads back a published table's row keys
// with its prefix stripped.
func TestKeysPageIsCellsPageRows(t *testing.T) {
	srv, c := serveTest(t)
	a := assoc.New()
	for i := 0; i < 40; i++ {
		row := fmt.Sprintf("ip%02d", i)
		for j := 0; j <= i%3; j++ {
			a.Set(row, fmt.Sprintf("c%d", j), assoc.Num(float64(i)))
		}
	}
	if err := c.PublishAssoc("t1/", a, 16); err != nil {
		t.Fatal(err)
	}
	if err := c.PublishAssoc("t2/", a, 16); err != nil {
		t.Fatal(err)
	}
	bounds := []string{"", "t1/", "t2/", "t1/ip00", "t1/ip17", "t1/ip17x", "t2/ip39", "u"}
	for _, start := range bounds {
		for _, end := range bounds {
			for _, cursor := range bounds {
				for _, limit := range []int{1, 3, 7, 100} {
					cells, err := c.appendPage(nil, cellsRequest, start, end, limit, cursor)
					if err != nil {
						t.Fatal(err)
					}
					var want []string
					for i, cell := range cells {
						if i == 0 || cell.Row != cells[i-1].Row {
							want = append(want, cell.Row)
						}
					}
					got, _ := srv.store.appendKeys(nil, start, end, limit, cursor)
					resp, err := c.roundTrip(fmt.Sprintf("KEYS\t%s\t%s\t%d\t%s", start, end, limit, cursor))
					if err != nil {
						t.Fatal(err)
					}
					wire, err := c.readBlock(resp)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(got, want) || !slices.Equal(wire, want) {
						t.Fatalf("KEYS(%q,%q,%d,%q): store %q, wire %q; CELLS' rows %q", start, end, limit, cursor, got, wire, want)
					}
				}
			}
		}
	}
	for _, page := range []int{0, 1, 7, 1000} {
		keys, err := c.FetchKeys("t1/", page)
		if err != nil || !slices.Equal(keys, a.RowKeys()) {
			t.Fatalf("FetchKeys(t1/, %d) = %q, %v; want %q", page, keys, err, a.RowKeys())
		}
	}
	if keys, err := c.FetchKeys("none/", 8); err != nil || len(keys) != 0 {
		t.Fatalf("FetchKeys of an empty prefix = %q, %v", keys, err)
	}
}

// TestCloseWithIdleClient is the regression test for the shutdown hang:
// an idle connection that never sends anything must not block
// Server.Close.
func TestCloseWithIdleClient(t *testing.T) {
	srv, err := Serve(NewStore(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	done := make(chan error, 1)
	go func() { done <- srv.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Close = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Server.Close hung on an idle client connection")
	}
}

// TestIdleTimeoutDropsConnection: the per-connection read deadline must
// disconnect silent clients on its own.
func TestIdleTimeoutDropsConnection(t *testing.T) {
	srv, err := Serve(NewStore(), "127.0.0.1:0", func(s *Server) { s.idleTimeout = 50 * time.Millisecond })
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("idle connection was not dropped")
	}
}

// TestPipelineRecoversAfterBatchErr: a server-side batch rejection
// mid-pipeline must surface as the Flush error while the remaining
// in-flight acks are drained, leaving the connection usable.
func TestPipelineRecoversAfterBatchErr(t *testing.T) {
	srv, c := serveTest(t)
	p := c.StartPipeline(2)
	// Forge a malformed op into the first batch (the public API cannot
	// produce one; this simulates a server that rejects a batch).
	p.body = append(p.body, "BOGUS\tx\n"...)
	p.count++
	p.Put("r1", "c", assoc.Num(1)) // completes batch 1 (rejected)
	for i := 0; i < 6; i++ {       // batches 2..4, all good
		p.Put(fmt.Sprintf("g%d", i), "c", assoc.Num(1))
	}
	err := p.Close()
	if err == nil || !strings.Contains(err.Error(), "batch line") {
		t.Fatalf("Close after rejected batch = %v", err)
	}
	if err := c.Put("after", "c", assoc.Num(2)); err != nil {
		t.Fatalf("connection desynced after batch rejection: %v", err)
	}
	if v, ok := srv.store.Get("after", "c"); !ok || v.Num != 2 {
		t.Errorf("post-error Put lost: %v, %v", v, ok)
	}
}

// TestPublishReplacesPrefix: republishing a table under the same prefix
// must replace the old cells, not union with them — the byte-identical
// artifact guarantee against a long-lived store depends on it.
func TestPublishReplacesPrefix(t *testing.T) {
	srv, c := serveTest(t)
	first := assoc.New()
	first.Set("r1", "packets", assoc.Num(1))
	first.Set("r2", "packets", assoc.Num(2))
	if err := c.PublishAssoc("t/", first, 8); err != nil {
		t.Fatal(err)
	}
	second := assoc.New()
	second.Set("r3", "packets", assoc.Num(3))
	if err := c.PublishAssoc("t/", second, 8); err != nil {
		t.Fatal(err)
	}
	back, err := c.FetchAssoc("t/", 4)
	if err != nil {
		t.Fatal(err)
	}
	if back.NNZ() != 1 {
		t.Fatalf("republished prefix holds %d cells, want 1 (stale union?)", back.NNZ())
	}
	if v, ok := back.Get("r3", "packets"); !ok || v.Num != 3 {
		t.Errorf("republished table = %v, %v", v, ok)
	}
	if srv.store.NNZ() != 1 {
		t.Errorf("store NNZ = %d after replace", srv.store.NNZ())
	}
}

// TestPipelineRejectsTabs: tabs in keys or values would shift the wire
// fields of a BATCH body; the pipeline must refuse them client-side.
func TestPipelineRejectsTabs(t *testing.T) {
	_, c := serveTest(t)
	if err := c.PutBatch([]Cell{{Row: "a\tb", Col: "c", Val: assoc.Num(1)}}); err == nil {
		t.Error("tab row accepted")
	}
	if err := c.PutBatch([]Cell{{Row: "r", Col: "c", Val: assoc.Str("with\ttab")}}); err == nil {
		t.Error("tab value accepted")
	}
	// Rejection happens before anything is sent: the client stays usable.
	if err := c.Put("ok", "ok", assoc.Num(1)); err != nil {
		t.Fatalf("connection unusable after client-side rejection: %v", err)
	}
}

// TestFetchAssocTableAllocations is the alloc gate on the slab-wise
// fetch: FetchAssoc of a numeric table allocates nothing per row — a
// page's row keys are cut from one string, its cells are one slab and
// its rows' headers another, and the row map grows a few dozen times in
// all. The pages are a canned reply, so that the
// count is the client's and not also an in-process server's.
func TestFetchAssocTableAllocations(t *testing.T) {
	if testkit.RaceEnabled {
		t.Skip("the race detector perturbs allocation counts")
	}
	const rows, page = 16384, 512
	keys := make([]string, rows)
	for i := range keys {
		keys[i] = fmt.Sprintf("tel/x/10.0.%d.%d", i/256, i%256)
	}
	slices.Sort(keys)
	var reply strings.Builder
	for i, key := range keys {
		if i%page == 0 {
			fmt.Fprintf(&reply, "BLOCK %d\n", page)
		}
		fmt.Fprintf(&reply, "%s\tpackets\tn\t%d\n", key, i)
	}
	reply.WriteString("BLOCK 0\n")
	data := []byte(reply.String())
	perRow := testing.AllocsPerRun(5, func() {
		back, err := pipeClient(t, data).FetchAssoc("tel/x/", page)
		if err != nil || back.NNZ() != rows || !back.HasRow("10.0.7.7") {
			t.Fatalf("fetched %v, %v", back, err)
		}
	}) / rows
	t.Logf("%.3f table allocations per fetched row", perRow)
	if perRow > 0.05 {
		t.Errorf("FetchAssoc costs the table %.3f allocations per row, want <= 0.05", perRow)
	}
}

// TestCellsPageIsClamped: a page is assembled with the store
// read-locked, so the server bounds it. Through a real connection: a
// CELLS or KEYS request for a billion rows gets maxPageRows of them, the
// clients that loop until an empty page (FetchAssoc, FetchKeys,
// DeletePrefix) still see every row whatever page size they ask for, and a page buffer wider
// than maxPooledPage cells does not go back to the pool.
func TestCellsPageIsClamped(t *testing.T) {
	srv, c := serveTest(t)
	const rows = maxPageRows + 100
	cells := make([]Cell, rows)
	for i := range cells {
		cells[i] = Cell{Row: fmt.Sprintf("t/%06d", i), Col: "c", Val: assoc.Num(float64(i))}
	}
	if err := srv.store.PutBatch(cells); err != nil {
		t.Fatal(err)
	}
	page, err := c.appendPage(nil, cellsRequest, "t/", prefixEnd("t/"), 1_000_000_000, "")
	if err != nil || len(page) != maxPageRows || page[len(page)-1].Row != cells[maxPageRows-1].Row {
		t.Fatalf("CELLS for 1e9 rows returned %d rows, %v; want the first %d", len(page), err, maxPageRows)
	}
	back, err := c.FetchAssoc("t/", 1_000_000_000)
	if err != nil || back.NRows() != rows {
		t.Fatalf("FetchAssoc with a 1e9-row page fetched %v, %v; want %d rows", back, err, rows)
	}
	resp, err := c.roundTrip(fmt.Sprintf("KEYS\tt/\t%s\t1000000000\t", prefixEnd("t/")))
	if err != nil {
		t.Fatal(err)
	}
	if keys, err := c.readBlock(resp); err != nil || len(keys) != maxPageRows || keys[len(keys)-1] != cells[maxPageRows-1].Row {
		t.Fatalf("KEYS for 1e9 rows returned %d keys, %v; want the first %d", len(keys), err, maxPageRows)
	}
	if keys, err := c.FetchKeys("t/", 1_000_000_000); err != nil || len(keys) != rows {
		t.Fatalf("FetchKeys with a 1e9-row page fetched %d keys, %v; want %d", len(keys), err, rows)
	}
	if err := c.DeletePrefix("t/", 1_000_000_000); err != nil || srv.store.NNZ() != 0 {
		t.Fatalf("DeletePrefix with a 1e9-row page: %v, %d cells left", err, srv.store.NNZ())
	}

	// One row wider than the pool takes: its page must not be parked.
	// A single P, so that what the handler pools is what Get finds.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	wide := make([]Cell, maxPooledPage+1)
	for i := range wide {
		wide[i] = Cell{Row: "wide", Col: fmt.Sprintf("c%06d", i), Val: assoc.Num(1)}
	}
	if err := srv.store.PutBatch(wide); err != nil {
		t.Fatal(err)
	}
	if page, err = c.appendPage(page[:0], cellsRequest, "wide", "", 1, ""); err != nil || len(page) != len(wide) {
		t.Fatalf("CELLS of the wide row returned %d cells, %v", len(page), err)
	}
	for i := 0; i < 64; i++ {
		if buf := pagePool.Get().(*[]Cell); cap(*buf) > maxPooledPage {
			t.Fatalf("the pool holds a page buffer of %d cells, above the %d it may keep", cap(*buf), maxPooledPage)
		}
	}
}

// TestRemovedVerbsAreUnknown: ROW, COL, RANGE and a top-level DEL are
// not part of the protocol. Each is refused as an unknown command and
// the connection stays in sync, serving the CELLS page sent after it. A
// delete travels as a BATCH body line.
func TestRemovedVerbsAreUnknown(t *testing.T) {
	srv, c := serveTest(t)
	if err := srv.store.Put("r", "c", assoc.Num(1)); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ verb, line string }{
		{"ROW", "ROW\tr"},
		{"COL", "COL\tc"},
		{"RANGE", "RANGE\t\t"},
		{"DEL", "DEL\tr\tc"},
	} {
		t.Run(tc.verb, func(t *testing.T) {
			resp, err := c.roundTrip(tc.line)
			if err != nil {
				t.Fatal(err)
			}
			if want := fmt.Sprintf("ERR unknown command %q", tc.verb); resp != want {
				t.Errorf("%q got %q, want %q", tc.line, resp, want)
			}
			cells, err := c.RowCells("r")
			if err != nil || len(cells) != 1 || cells[0] != (Cell{Row: "r", Col: "c", Val: assoc.Num(1)}) {
				t.Errorf("CELLS after %s = %v, %v", tc.verb, cells, err)
			}
		})
	}
}
