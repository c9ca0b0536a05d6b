package tripled

// badvalue_test.go: values can break the line formats that keys no
// longer can. A string value holding a newline splits its record in
// two wherever a cell is framed as a line — WriteLog (hence WAL
// compaction snapshots), CELLS pages, the WAL payload — and the second
// half parses as a forged record; one ending in a carriage return loses
// it to the line scanner. Both are refused with a BadValueError at
// every way in: the Store API, the protocol parser, and the client
// before anything is sent.

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/assoc"
)

var badValues = []string{
	"abc\r",                   // ScanLines eats the CR: read back as "abc"
	"mid\rdle",                // refused wherever it sits
	"x\nPUT\tforged\tc\tn\t1", // replays as a second, forged PUT
	"\n",                      // an empty record and a dangling one
	"tail\n",                  // the record after it starts on a blank line
}

func wantBadValue(t *testing.T, what string, err error) {
	t.Helper()
	var bv *BadValueError
	if !errors.As(err, &bv) {
		t.Errorf("%s = %v, want BadValueError", what, err)
	}
	if err != nil && Classify(err) != ClassFatal {
		t.Errorf("%s classifies %v, want fatal", what, Classify(err))
	}
}

func TestStoreRejectsLineBreakingValues(t *testing.T) {
	s := NewStore()
	for _, bad := range badValues {
		wantBadValue(t, fmt.Sprintf("Put(%q)", bad), s.Put("r", "c", assoc.Str(bad)))
		// All-or-nothing: the good cells around the bad one stay out.
		wantBadValue(t, fmt.Sprintf("PutBatch(.., %q, ..)", bad), s.PutBatch([]Cell{
			{Row: "good", Col: "a", Val: assoc.Str("fine")},
			{Row: "good", Col: "b", Val: assoc.Str(bad)},
			{Row: "good", Col: "c", Val: assoc.Num(1)},
		}))
		a := assoc.New()
		a.Set("r1", "c", assoc.Num(1))
		a.Set("r2", "c", assoc.Str(bad))
		wantBadValue(t, fmt.Sprintf("LoadAssoc(.., %q)", bad), s.LoadAssoc(a))
	}
	if s.NNZ() != 0 {
		t.Fatalf("store holds %d cells after refusing every write", s.NNZ())
	}
	// What is not refused: tabs (the value is the last field of its
	// line), and a numeric value whatever its unused Str says.
	if err := s.Put("r", "tab", assoc.Str("a\tb")); err != nil {
		t.Errorf("tab in a value refused at the store: %v", err)
	}
	if err := s.Put("r", "num", assoc.Value{Str: "x\ny", Num: 7, Numeric: true}); err != nil {
		t.Errorf("numeric value refused: %v", err)
	}
	// The log of a store that refused them replays to the same table.
	var log bytes.Buffer
	if err := s.WriteLog(&log); err != nil {
		t.Fatal(err)
	}
	back := NewStore()
	if _, err := back.replayLog(bytes.NewReader(log.Bytes()), nil); err != nil {
		t.Fatal(err)
	}
	if !bucketsEqual(back.BucketDigests(16), s.BucketDigests(16)) || back.NNZ() != s.NNZ() {
		t.Fatalf("WriteLog -> replayLog changed the table: %d cells became %d", s.NNZ(), back.NNZ())
	}
	verifyStoreInvariants(t, back)
}

// TestWriteLogReplayRoundTripsEveryAcceptedValue: whatever the store
// accepts, its log gives back — the property the refusals exist for.
func TestWriteLogReplayRoundTripsEveryAcceptedValue(t *testing.T) {
	s := NewStore()
	n := 0
	for _, v := range append([]string{"", " ", "plain", "a\tb\tc", "\t", "trailing space ", "PUT\tforged\tc\tn\t1", "ünï", "\x00\x7f"}, badValues...) {
		if s.Put(fmt.Sprintf("r%02d", n), "c", assoc.Str(v)) == nil {
			n++
		}
	}
	if n != 9 {
		t.Fatalf("store accepted %d of the values, want the 9 line-safe ones", n)
	}
	var log bytes.Buffer
	if err := s.WriteLog(&log); err != nil {
		t.Fatal(err)
	}
	if got := bytes.Count(log.Bytes(), []byte("\n")); got != n {
		t.Fatalf("log of %d cells has %d lines", n, got)
	}
	back := NewStore()
	if _, err := back.replayLog(&log, nil); err != nil {
		t.Fatal(err)
	}
	if got, want := storeLog(t, back), storeLog(t, s); !bytes.Equal(got, want) {
		t.Fatalf("replayed store differs:\n%s\nwant:\n%s", got, want)
	}
}

func TestClientRejectsLineBreakingValuesBeforeSending(t *testing.T) {
	srv, c := serveTest(t)
	for _, bad := range badValues {
		wantBadValue(t, fmt.Sprintf("Client.Put(%q)", bad), c.Put("r", "c", assoc.Str(bad)))
		p := c.StartPipeline(2)
		p.Put("ok", "c", assoc.Num(1))
		p.Put("r", "c", assoc.Str(bad)) // would have filled and sent the batch
		wantBadValue(t, fmt.Sprintf("Pipeline.Put(%q)", bad), p.Close())
		wantBadValue(t, fmt.Sprintf("Client.PutBatch(%q)", bad), c.PutBatch([]Cell{
			{Row: "ok", Col: "c", Val: assoc.Num(1)},
			{Row: "r", Col: "c", Val: assoc.Str(bad)},
		}))
		a := assoc.New()
		a.Set("ok", "c", assoc.Num(1))
		a.Set("r", "c", assoc.Str(bad))
		wantBadValue(t, fmt.Sprintf("PublishAssoc(%q)", bad), c.PublishAssoc("t/", a, 1024))
	}
	// Nothing reached the server and the connection is still in step.
	if n, err := c.NNZ(); err != nil || n != 0 {
		t.Fatalf("NNZ = %d, %v after client-side refusals", n, err)
	}
	if err := c.Put("ok", "ok", assoc.Str("fine")); err != nil {
		t.Fatalf("connection unusable after client-side refusals: %v", err)
	}
	if srv.store.NNZ() != 1 {
		t.Fatalf("server holds %d cells, want 1", srv.store.NNZ())
	}
}

// TestPublishRejectsBadKeysBeforeSending: the pipeline checks a row's
// key once for all its cells, so a bad key in any row but the first —
// whose cells were fine and already queued — a bad key on a row whose
// name is empty (the key is the prefix alone), a bad column and a bad
// value in a later cell of a good row must each still fail the publish
// with its typed error before the batch holding it is sent.
func TestPublishRejectsBadKeysBeforeSending(t *testing.T) {
	srv, c := serveTest(t)
	wantBadKey := func(what, key string, err error) {
		t.Helper()
		var bk *BadKeyError
		if !errors.As(err, &bk) || bk.Key != key {
			t.Errorf("%s = %v, want BadKeyError for %q", what, err, key)
		}
	}
	table := func(cells ...Cell) *assoc.Assoc {
		a := assoc.New()
		for _, c := range cells {
			a.Set(c.Row, c.Col, c.Val)
		}
		return a
	}
	good := []Cell{{Row: "a", Col: "c1", Val: assoc.Num(1)}, {Row: "a", Col: "c2", Val: assoc.Str("fine")}}
	for _, bad := range []string{"b\rad", "b\tad", "b\nad"} {
		a := table(append(good[:2:2], Cell{Row: bad, Col: "c1", Val: assoc.Num(2)}, Cell{Row: "z", Col: "c1", Val: assoc.Num(3)})...)
		wantBadKey(fmt.Sprintf("PublishAssoc(second row %q)", bad), "t/"+bad, c.PublishAssoc("t/", a, 1024))
		a = table(append(good[:2:2], Cell{Row: "a", Col: bad, Val: assoc.Num(2)})...)
		wantBadKey(fmt.Sprintf("PublishAssoc(third column %q)", bad), bad, c.PublishAssoc("t/", a, 1024))
	}
	wantBadKey("PublishAssoc(bad prefix, empty row name)", "p\r/", c.PublishAssoc("p\r/", table(Cell{Row: "", Col: "c", Val: assoc.Num(1)}), 1024))
	wantBadValue(t, "PublishAssoc(bad value in a good row's second cell)",
		c.PublishAssoc("t/", table(good[0], Cell{Row: "a", Col: "c2", Val: assoc.Str("x\ny")}), 1024))
	p := c.StartPipeline(1024)
	p.Put("a", "c", assoc.Num(1))
	p.Put("b\rad", "c", assoc.Num(2))
	wantBadKey("Pipeline.Put(bad row)", "b\rad", p.Close())
	if n, err := c.NNZ(); err != nil || n != 0 || srv.store.NNZ() != 0 {
		t.Fatalf("NNZ = %d, %v after client-side refusals; server holds %d", n, err, srv.store.NNZ())
	}
	// The server does not take the client's word: every line is checked.
	if err := new(mutations).parse([]byte("PUT\tb\rad\tc\tn\t1")); err == nil {
		t.Error("parse accepted a carriage return in a row key")
	}
}

// TestProtocolRejectsCarriageReturnValue talks to the server past the
// client's own check: a PUT and a BATCH body line whose value holds a
// carriage return are refused at parse time — before the WAL or the
// store — and the batch applies nothing.
func TestProtocolRejectsCarriageReturnValue(t *testing.T) {
	dir := t.TempDir()
	srv, c, _ := durableServe(t, dir)
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	ask := func(req string) string {
		t.Helper()
		fmt.Fprint(conn, req)
		buf := make([]byte, 256)
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		n, _ := conn.Read(buf)
		return string(buf[:n])
	}
	if resp := ask("PUT\tr\tc\ts\tmid\rdle\n"); !strings.HasPrefix(resp, "ERR") {
		t.Fatalf("PUT with \\r value answered %q, want ERR", resp)
	}
	if resp := ask("BATCH\t2\nPUT\tgood\tc\ts\tfine\nPUT\tbad\tc\ts\tmid\rdle\n"); !strings.HasPrefix(resp, "ERR") {
		t.Fatalf("batch with \\r value answered %q, want ERR", resp)
	}
	if n, err := c.NNZ(); err != nil || n != 0 {
		t.Fatalf("NNZ = %d, %v after refused mutations, want 0 (atomic)", n, err)
	}
	// The connection survived both refusals, and nothing reached the WAL.
	if resp := ask("PUT\tr\tc\ts\tfine\n"); resp != "OK\n" {
		t.Fatalf("PUT after the refusals answered %q", resp)
	}
	c.Close()
	srv.Close()
	back, rec := recoverStore(t, dir)
	if rec.TailOps != 1 || back.NNZ() != 1 {
		t.Fatalf("recovered %d ops into %d cells, want the 1 accepted PUT", rec.TailOps, back.NNZ())
	}
}
