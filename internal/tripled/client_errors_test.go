package tripled

// client_errors_test.go exercises the client's failure paths: servers
// that die mid-response, servers that talk garbage, and dialing a
// server that is gone. Every case must return an error promptly — no
// hangs, no panics.

import (
	"bufio"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/assoc"
)

// fakeServer accepts one connection, answers every request line with
// the fixed script responses (one per request), then reads one more
// request line before it closes the connection — so a client that
// sends a second line, a BATCH body, sees the script through. An empty
// script closes immediately after the first read.
func fakeServer(t *testing.T, script ...string) string {
	return scriptedServer(t, true, script)
}

// hangUpServer is fakeServer closing as soon as its last response is
// written: a client still reading one sees the connection drop there.
func hangUpServer(t *testing.T, script ...string) string {
	return scriptedServer(t, false, script)
}

func scriptedServer(t *testing.T, readOneMore bool, script []string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		sc := bufio.NewScanner(conn)
		for _, resp := range script {
			if !sc.Scan() {
				return
			}
			conn.Write([]byte(resp))
		}
		if readOneMore {
			sc.Scan() // wait for one more request, then hang up mid-exchange
		}
	}()
	return ln.Addr().String()
}

func dialTest(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	c.conn.SetDeadline(time.Now().Add(10 * time.Second)) // hang guard
	return c
}

// TestClientServerDropsMidBlock: the server writes two lines of a
// five-line block and hangs up, so the client's read ends at EOF inside
// the block — at once, not at dialTest's deadline — whether the block is
// a CELLS or a KEYS page.
func TestClientServerDropsMidBlock(t *testing.T) {
	addr := hangUpServer(t, "BLOCK 5\na\tc\tn\t1\na\td\tn\t2\n")
	c := dialTest(t, addr)
	start := time.Now()
	_, err := c.RowCells("a")
	if err == nil || !strings.Contains(err.Error(), "truncated block (2 of 5 lines)") {
		t.Fatalf("mid-block drop error = %v", err)
	}
	if wait := time.Since(start); wait > 5*time.Second {
		t.Fatalf("the drop surfaced after %v, at the hang guard's deadline", wait)
	}

	// A KEYS page cut short is the same transport event: retryable, since
	// a read is pure.
	c = dialTest(t, hangUpServer(t, "BLOCK 5\na\nb\n"))
	keys, err := c.FetchKeys("", 8)
	if err == nil || !Retryable(err) || !strings.Contains(err.Error(), "truncated block (2 of 5 lines)") {
		t.Fatalf("mid-block drop of a KEYS page = %q, %v; want a retryable truncated block", keys, err)
	}
}

func TestClientServerDropsBeforeResponse(t *testing.T) {
	addr := fakeServer(t)
	c := dialTest(t, addr)
	if err := c.Put("r", "c", assoc.Num(1)); err == nil {
		t.Fatal("Put against a hanging-up server succeeded")
	}
}

func TestClientMalformedResponses(t *testing.T) {
	cases := []struct {
		name string
		resp string
		call func(*Client) error
	}{
		{"garbage status", "WAT\n", func(c *Client) error { return c.Put("r", "c", assoc.Num(1)) }},
		{"get payload no tab", "OK n1\n", func(c *Client) error { _, err := c.Get("r", "c"); return err }},
		{"get payload bad marker", "OK q\tv\n", func(c *Client) error { _, err := c.Get("r", "c"); return err }},
		{"block header not a count", "BLOCK x\n", func(c *Client) error { _, err := c.RowCells("r"); return err }},
		{"block header negative", "BLOCK -2\n", func(c *Client) error { _, err := c.RowCells("r"); return err }},
		{"block instead of ok", "BLOCK 0\n", func(c *Client) error { _, err := c.NNZ(); return err }},
		{"ok instead of block", "OK\n", func(c *Client) error { _, err := c.TopRowsByDegree(1); return err }},
		{"cell line too few fields", "BLOCK 1\nonlyrow\n", func(c *Client) error { _, err := c.RowCells("r"); return err }},
		{"cells line too few fields", "BLOCK 1\nr\tc\n", func(c *Client) error { _, err := c.appendPage(nil, cellsRequest, "", "", 5, ""); return err }},
		{"degree not a number", "BLOCK 1\nr\tx\n", func(c *Client) error { _, err := c.TopRowsByDegree(1); return err }},
		{"nnz not a number", "OK many\n", func(c *Client) error { _, err := c.NNZ(); return err }},
		{"batch ack wrong count", "OK 7\n", func(c *Client) error { return c.PutBatch([]Cell{{Row: "r", Col: "c", Val: assoc.Num(1)}}) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			addr := fakeServer(t, tc.resp)
			c := dialTest(t, addr)
			if err := tc.call(c); err == nil {
				t.Errorf("response %q accepted", tc.resp)
			}
		})
	}
}

func TestDialClosedServer(t *testing.T) {
	srv, err := Serve(NewStore(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Dial(addr); err == nil {
		t.Fatal("Dial against a closed server succeeded")
	}
}

func TestClientRejectsNewlines(t *testing.T) {
	// No server round trip should happen; use an address nothing answers
	// beyond the dial.
	srv, err := Serve(NewStore(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := dialTest(t, srv.Addr())
	if err := c.Put("bad\nrow", "c", assoc.Num(1)); err == nil {
		t.Error("newline row accepted")
	}
	if err := c.PutBatch([]Cell{{Row: "r", Col: "bad\ncol", Val: assoc.Num(1)}}); err == nil {
		t.Error("newline col accepted in batch")
	}
}

// TestErrNotFoundStillDistinguished guards that transport-error changes
// didn't fold NF into generic errors.
func TestErrNotFoundStillDistinguished(t *testing.T) {
	_, c := serveTest(t)
	if _, err := c.Get("nope", "nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("absent Get error = %v, want ErrNotFound", err)
	}
}
