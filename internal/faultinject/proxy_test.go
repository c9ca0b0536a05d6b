package faultinject

// proxy_test.go proves each fault mode manifests on the wire — not
// just that the proxy's state machine flips, but that a real client on
// a real TCP connection observes the failure the mode claims to
// inject. The reset-mid-BATCH test drives an actual tripled server
// through the proxy and checks the protocol's atomicity contract holds
// under the injected crash: a truncated batch applies nothing.

import (
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/assoc"
	"repro/internal/tripled"
)

// echoUpstream is a plain TCP echo server, the upstream for the
// generic transport modes.
func echoUpstream(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() { io.Copy(c, c); c.Close() }()
		}
	}()
	return ln
}

func newProxy(t *testing.T, target string) *Proxy {
	t.Helper()
	p, err := New(target)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

// roundTrip writes msg and reads len(msg) bytes back, with a deadline.
func roundTrip(t *testing.T, conn net.Conn, msg string) (string, error) {
	t.Helper()
	conn.SetDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Write([]byte(msg)); err != nil {
		return "", err
	}
	buf := make([]byte, len(msg))
	if _, err := io.ReadFull(conn, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

func dialProxy(t *testing.T, p *Proxy) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

func TestForwardRelays(t *testing.T) {
	p := newProxy(t, echoUpstream(t).Addr().String())
	conn := dialProxy(t, p)
	got, err := roundTrip(t, conn, "hello through the proxy")
	if err != nil || got != "hello through the proxy" {
		t.Fatalf("echo through proxy: %q, %v", got, err)
	}
	if fwd := p.ForwardedBytes(); fwd != int64(len("hello through the proxy")) {
		t.Fatalf("ForwardedBytes = %d", fwd)
	}
}

func TestDelayAddsLatency(t *testing.T) {
	p := newProxy(t, echoUpstream(t).Addr().String())
	conn := dialProxy(t, p)

	// Baseline: loopback echo is microseconds.
	if _, err := roundTrip(t, conn, "warm"); err != nil {
		t.Fatal(err)
	}
	p.SetDelay(80 * time.Millisecond)
	p.SetMode(Delay)
	start := time.Now()
	if _, err := roundTrip(t, conn, "slow"); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took < 80*time.Millisecond {
		t.Fatalf("delayed round trip took only %v, want >= 80ms", took)
	}
}

func TestBlackholeSwallowsBothDirections(t *testing.T) {
	p := newProxy(t, echoUpstream(t).Addr().String())
	conn := dialProxy(t, p)
	if _, err := roundTrip(t, conn, "pre"); err != nil {
		t.Fatal(err)
	}
	p.SetMode(Blackhole)

	// Writes "succeed" (the proxy reads and discards) but nothing comes
	// back: the read must hit its deadline, the partition only a
	// deadline can detect.
	conn.SetDeadline(time.Now().Add(300 * time.Millisecond))
	if _, err := conn.Write([]byte("into the void")); err != nil {
		t.Fatalf("write into blackhole failed immediately: %v", err)
	}
	buf := make([]byte, 1)
	_, err := conn.Read(buf)
	ne, ok := err.(net.Error)
	if !ok || !ne.Timeout() {
		t.Fatalf("read through blackhole returned %v, want deadline timeout", err)
	}
	if fwd := p.ForwardedBytes(); fwd != int64(len("pre")) {
		t.Fatalf("blackholed bytes were counted as forwarded: %d", fwd)
	}
}

func TestSlowReadTrickles(t *testing.T) {
	p := newProxy(t, echoUpstream(t).Addr().String())
	p.SetSlowRead(64, 10*time.Millisecond)
	conn := dialProxy(t, p)
	p.SetMode(SlowRead)

	// 1 KiB at 64 bytes / 10 ms is >= 150 ms of mandatory trickle on
	// the server→client leg.
	msg := strings.Repeat("x", 1024)
	start := time.Now()
	got, err := roundTrip(t, conn, msg)
	if err != nil || got != msg {
		t.Fatalf("slow-read round trip: err=%v, %d bytes", err, len(got))
	}
	if took := time.Since(start); took < 150*time.Millisecond {
		t.Fatalf("1 KiB slow-read took only %v, want >= 150ms", took)
	}
}

func TestDropClosesNewConnections(t *testing.T) {
	p := newProxy(t, echoUpstream(t).Addr().String())
	p.SetMode(Drop)
	conn := dialProxy(t, p)
	conn.SetDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err != io.EOF {
		t.Fatalf("read on dropped connection returned %v, want EOF", err)
	}
}

func TestResetTearsDownExistingConnections(t *testing.T) {
	p := newProxy(t, echoUpstream(t).Addr().String())
	conn := dialProxy(t, p)
	if _, err := roundTrip(t, conn, "pre"); err != nil {
		t.Fatal(err)
	}
	p.SetMode(Reset)
	conn.SetDeadline(time.Now().Add(2 * time.Second))
	// The next chunk through the proxy triggers the RST.
	conn.Write([]byte("boom"))
	buf := make([]byte, 4)
	var err error
	for i := 0; i < 2 && err == nil; i++ { // first read may race the RST
		_, err = conn.Read(buf)
	}
	if err == nil || err == io.EOF {
		t.Fatalf("read on reset connection returned %v, want a connection error", err)
	}
}

func TestBlackholeAfterBytesIsDeterministic(t *testing.T) {
	p := newProxy(t, echoUpstream(t).Addr().String())
	p.BlackholeAfterBytes(8)
	conn := dialProxy(t, p)

	// The 8 threshold bytes are forwarded upstream, then the proxy
	// flips itself to Blackhole. (Whether their echo makes it back is a
	// race against the flip — only the client→server cut point is
	// deterministic, which is what the kill-mid-study scenario needs.)
	conn.SetDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Write([]byte("12345678")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for p.Mode() != Blackhole {
		if time.Now().After(deadline) {
			t.Fatalf("mode after threshold = %v, want blackhole", p.Mode())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if fwd := p.ForwardedBytes(); fwd != 8 {
		t.Fatalf("ForwardedBytes at flip = %d, want 8", fwd)
	}

	// Everything after the threshold vanishes: not forwarded, no reply.
	if _, err := conn.Write([]byte("after")); err != nil {
		t.Fatalf("write into blackhole failed immediately: %v", err)
	}
	time.Sleep(50 * time.Millisecond)
	if fwd := p.ForwardedBytes(); fwd != 8 {
		t.Fatalf("bytes past the threshold were forwarded: %d", fwd)
	}
}

// TestResetMidBatchAppliesNothing is the reason the harness exists:
// cut a BATCH mid-body with an RST and prove the server's atomicity
// contract — a truncated batch applies no cells — while the client
// sees a retryable transport error, the combination the cluster's
// replay-on-redial recovery depends on.
func TestResetMidBatchAppliesNothing(t *testing.T) {
	f := newFleet(t, FleetConfig{Nodes: 1, Proxied: true})
	p := f.Proxy(0)
	c, err := tripled.Dial(p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// ~100 cells * ~25 bytes each; cut the stream after 500 bytes, well
	// inside the batch body.
	p.ResetAfterBytes(500)
	cells := make([]tripled.Cell, 100)
	for i := range cells {
		cells[i] = tripled.Cell{Row: "r" + strings.Repeat("0", 10), Col: "c", Val: assoc.Num(float64(i))}
		cells[i].Row = cells[i].Row + string(rune('a'+i%26))
	}
	err = c.PutBatch(cells)
	if err == nil {
		t.Fatal("PutBatch through a mid-batch reset succeeded")
	}
	if !tripled.Retryable(err) {
		t.Fatalf("mid-batch reset error %v classified %v, want retryable", err, tripled.Classify(err))
	}

	// Atomicity: the server must have applied nothing from the cut batch.
	// The server tears the connection down asynchronously; watch for two
	// seconds.
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		if n := f.Store(0).NNZ(); n != 0 {
			t.Fatalf("server applied %d cells from a truncated batch", n)
		}
	}
}

// TestTriggerAfterBytesFiresOnceAndForwards: the hook must fire exactly
// once when the client→server byte count crosses the threshold, after
// the crossing chunk was forwarded — and the relay must keep working.
func TestTriggerAfterBytesFiresOnceAndForwards(t *testing.T) {
	p := newProxy(t, echoUpstream(t).Addr().String())
	var fired atomic.Int32
	hit := make(chan struct{})
	p.TriggerAfterBytes(10, func() {
		if fired.Add(1) == 1 {
			close(hit)
		}
	})
	conn := dialProxy(t, p)
	// 8 bytes: below threshold, no fire.
	if got, err := roundTrip(t, conn, "12345678"); err != nil || got != "12345678" {
		t.Fatalf("pre-threshold roundtrip: %q, %v", got, err)
	}
	select {
	case <-hit:
		t.Fatal("trigger fired below the threshold")
	case <-time.After(50 * time.Millisecond):
	}
	// 8 more: crosses 10; the chunk must still be forwarded.
	if got, err := roundTrip(t, conn, "abcdefgh"); err != nil || got != "abcdefgh" {
		t.Fatalf("crossing roundtrip: %q, %v", got, err)
	}
	select {
	case <-hit:
	case <-time.After(2 * time.Second):
		t.Fatal("trigger did not fire after crossing the threshold")
	}
	// More traffic must not re-fire the one-shot.
	if got, err := roundTrip(t, conn, "postfire-traffic"); err != nil || got != "postfire-traffic" {
		t.Fatalf("post-fire roundtrip: %q, %v", got, err)
	}
	time.Sleep(50 * time.Millisecond)
	if n := fired.Load(); n != 1 {
		t.Fatalf("trigger fired %d times, want exactly 1", n)
	}
}
