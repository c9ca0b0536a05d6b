package tripled

// dial_test.go regression-tests the hardened transport: a server that
// cannot be reached — or accepts and then never answers — must surface
// a bounded, retryable error instead of hanging the caller (the bug
// class that used to wedge core.Pipeline setup on a blackholed store).

import (
	"context"
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// silentListener accepts connections and never reads or writes — the
// classic half-dead server. (The kernel completes handshakes from the
// backlog even if userspace never calls Accept, so "accepts nothing"
// at the protocol level means exactly this: connected, then silence.)
func silentListener(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			// Swallow the connection: no reads, no writes.
			_ = conn
		}
	}()
	return ln
}

func TestIOTimeoutAgainstSilentServer(t *testing.T) {
	ln := silentListener(t)
	c, err := Dial(ln.Addr().String(), WithIOTimeout(100*time.Millisecond))
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	done := make(chan error, 1)
	go func() {
		_, err := c.Get("row", "col")
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Get against a silent server succeeded")
		}
		if !Retryable(err) {
			t.Fatalf("Get error %v classified %v, want retryable", err, Classify(err))
		}
		var te *TransportError
		if !errors.As(err, &te) || !te.Timeout() {
			t.Fatalf("Get error %v, want a TransportError deadline", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Get against a silent server hung past the deadline")
	}
}

func TestDialTimeoutIsBounded(t *testing.T) {
	// 203.0.113.0/24 (TEST-NET-3) is reserved and unroutable: the SYN
	// goes nowhere, the historical net.Dial would sit in the OS connect
	// timeout (minutes). The environment may instead refuse or reject
	// instantly — any outcome is fine as long as the dial returns an
	// error within the context's bound.
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
		defer cancel()
		c, err := dialContext(ctx, "203.0.113.1:9")
		if err == nil {
			c.Close()
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Skip("environment routed TEST-NET-3; cannot exercise the timeout")
		}
		if !Retryable(err) {
			t.Fatalf("dial error %v classified %v, want retryable", err, Classify(err))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("dial to an unroutable address hung past its deadline")
	}
}

func TestDialContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := dialContext(ctx, "203.0.113.1:9"); err == nil {
		t.Fatal("dial with cancelled context succeeded")
	} else if !Retryable(err) {
		t.Fatalf("cancelled dial error %v classified %v, want retryable", err, Classify(err))
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		err  error
		want Class
	}{
		{ErrNotFound, ClassNotFound},
		{ErrStaleRing, ClassStaleRing},
		{&TransportError{Op: "recv", Err: errConnClosed}, ClassRetryable},
		{io.EOF, ClassRetryable},
		{net.ErrClosed, ClassRetryable},
		{errors.New("tripled: server: bad batch count"), ClassFatal},
	}
	for _, tc := range cases {
		if got := Classify(tc.err); got != tc.want {
			t.Errorf("Classify(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}

func TestRetryDoStopsOnFatal(t *testing.T) {
	calls := 0
	err := Retry{Attempts: 5, Base: time.Millisecond, Max: time.Millisecond}.Do(nil, func() error {
		calls++
		return errors.New("fatal protocol refusal")
	})
	if err == nil || calls != 1 {
		t.Fatalf("fatal error retried: calls=%d err=%v", calls, err)
	}

	calls = 0
	err = Retry{Attempts: 3, Base: time.Millisecond, Max: time.Millisecond}.Do(nil, func() error {
		calls++
		if calls < 3 {
			return &TransportError{Op: "recv", Err: errConnClosed}
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("retryable path: calls=%d err=%v", calls, err)
	}
}

func TestBackoffBounded(t *testing.T) {
	r := Retry{Attempts: 8, Base: 10 * time.Millisecond, Max: 80 * time.Millisecond}
	for attempt := 1; attempt <= 8; attempt++ {
		for i := 0; i < 50; i++ {
			d := r.backoff(attempt, nil)
			if d < 0 || d > r.Max {
				t.Fatalf("attempt %d backoff %v outside [0, %v]", attempt, d, r.Max)
			}
			if attempt <= 1 && d != 0 {
				t.Fatalf("first attempt slept %v", d)
			}
		}
	}
}
