package daemon

// edge_test.go is the daemon's hardened edge: a malformed ingest body is
// a 4xx that changes nothing, an oversized one is refused unread, and a
// peer that dribbles its header is cut off while others are served.

import (
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/faultinject"
)

// TestIngestRejectsMalformedBodies: every body that is not exactly one
// of the documented shapes is a 4xx and does not advance seq. The null
// row is the bug this table was written for: a RawMessage keeps the
// literal and unmarshalling it into an int is a no-op, so it used to
// ingest month 0 and answer 200.
func TestIngestRejectsMalformedBodies(t *testing.T) {
	d, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	h := d.handler()
	before := d.Snapshot().Seq
	for _, c := range []struct{ path, body string }{
		{"/ingest/month", `{"month": null}`},
		{"/ingest/month", `{"month": 1.5}`},
		{"/ingest/month", `{"month": 1e0}`},
		{"/ingest/month", `{"month": []}`},
		{"/ingest/month", `{"month": {}}`},
		{"/ingest/month", `{"month": ""}`},
		{"/ingest/month", `{"month": -1}`},
		{"/ingest/month", `{"month": true}`},
		{"/ingest/month", `{}`},
		{"/ingest/month", ``},
		{"/ingest/month", `{"month": 0} {"month": 1}`},
		{"/ingest/month", `{"month": 0}]`},
		{"/ingest/snapshot", `{"time": null}`},
		{"/ingest/snapshot", `{"time": 1592395200}`},
		{"/ingest/snapshot", `{"time": "2020-06-17T12:00:00Z"} trailing`},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", c.path, strings.NewReader(c.body)))
		if rec.Code < 400 || rec.Code > 499 {
			t.Errorf("POST %s %s: %d %s, want a 4xx", c.path, c.body, rec.Code, rec.Body)
		}
		if snap := d.Snapshot(); snap.Seq != before || snap.Months != 0 || snap.Snapshots != 0 {
			t.Fatalf("POST %s %s changed the study: seq %d, %d months, %d snapshots",
				c.path, c.body, snap.Seq, snap.Months, snap.Snapshots)
		}
	}
}

// countingReader counts what a handler pulled out of a body.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// TestIngestBodyIsCappedUnread: a 1 MiB body is a 413 on both ingest
// endpoints, and the handler stopped reading at the cap rather than
// buffering the lot to find the end of the value.
func TestIngestBodyIsCappedUnread(t *testing.T) {
	d, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	before := d.Snapshot().Seq
	for path, body := range map[string]string{
		"/ingest/month":    `{"month": "` + strings.Repeat("0", 1<<20) + `"}`,
		"/ingest/snapshot": `{"time": "2020-06-17T12:00:00Z"}` + strings.Repeat(" ", 1<<20),
	} {
		read := &countingReader{r: strings.NewReader(body)}
		rec := httptest.NewRecorder()
		d.handler().ServeHTTP(rec, httptest.NewRequest("POST", path, read))
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s with a 1 MiB body: %d %s, want 413", path, rec.Code, rec.Body)
		}
		if read.n > maxIngestBody+1 {
			t.Errorf("POST %s read %d bytes of the body, cap is %d", path, read.n, maxIngestBody)
		}
	}
	if snap := d.Snapshot(); snap.Seq != before {
		t.Errorf("an oversized body advanced seq from %d to %d", before, snap.Seq)
	}
}

// TestSlowHeaderIsCutOff: a request header dribbled through the chaos
// proxy's slow mode is hung up on once the header timeout passes, in
// under half the time it would have taken to arrive, and /healthz
// answers meanwhile.
func TestSlowHeaderIsCutOff(t *testing.T) {
	d, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	const headerTimeout = 200 * time.Millisecond
	s, err := serve(d, "127.0.0.1:0", headerTimeout, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(t.Context())

	// The proxy throttles what its target sends, so the attacker is the
	// target: a listener that writes the header at once, which the proxy
	// dribbles out at 2 bytes per 20 ms — some six seconds in all.
	header := "POST /ingest/month HTTP/1.1\r\nHost: studyd\r\nX-Padding: " + strings.Repeat("x", 600) + "\r\n"
	dribble := time.Duration(len(header)/2) * 20 * time.Millisecond
	attacker, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer attacker.Close()
	go func() {
		c, err := attacker.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		io.WriteString(c, header)
		io.Copy(io.Discard, c) // hold the connection open, as a slow loris does
	}()
	proxy, err := faultinject.New(attacker.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	proxy.SetSlowRead(2, 20*time.Millisecond)
	proxy.SetMode(faultinject.SlowRead)

	slow, err := net.Dial("tcp", proxy.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	victim, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer victim.Close()
	go io.Copy(victim, slow)

	// While the header dribbles in, another client is served at once.
	if code, _ := getJSON(t, "http://"+s.Addr()+"/healthz"); code != 200 {
		t.Errorf("healthz beside a slow header: %d", code)
	}

	// The server hangs up (after a bare 4xx at most) instead of waiting
	// out the header.
	start := time.Now()
	victim.SetReadDeadline(start.Add(dribble / 2))
	reply, err := io.ReadAll(victim)
	// A server that closes a socket with dribbled bytes still unread
	// sends a reset, not a FIN: that is a hang-up too. Only the read
	// deadline means the connection was still open.
	switch {
	case errors.Is(err, os.ErrDeadlineExceeded):
		t.Fatalf("the dribbled connection was still open after %v (header timeout %v): %v", time.Since(start), headerTimeout, err)
	case err != nil && !errors.Is(err, syscall.ECONNRESET):
		t.Fatalf("reading the dribbled connection: %v", err)
	}
	if len(reply) > 0 && !strings.HasPrefix(string(reply), "HTTP/1.1 4") {
		t.Errorf("reply to a header that never finished: %q", reply)
	}

	// Serve itself carries the production limits.
	prod, err := Serve(d, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer prod.srv.Close()
	if prod.srv.ReadHeaderTimeout != readHeaderTimeout || prod.srv.ReadTimeout != readTimeout || prod.srv.WriteTimeout != 0 {
		t.Errorf("Serve timeouts: header %v, read %v, write %v", prod.srv.ReadHeaderTimeout, prod.srv.ReadTimeout, prod.srv.WriteTimeout)
	}
}
