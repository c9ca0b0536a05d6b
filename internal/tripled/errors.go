package tripled

// errors.go is the typed error taxonomy of the hardened transport.
// Every error a client operation can surface falls into one of four
// classes, so callers (the cluster client above all) can decide
// mechanically whether to retry, fail over, or give up:
//
//	ClassRetryable  transport-level: dial failures, deadlines, resets,
//	                truncated responses. The request may not have been
//	                applied; retrying on the same or another replica is
//	                safe for the idempotent protocol (PUT/DEL/BATCH
//	                replays converge, reads are pure).
//	ClassFatal      protocol-level: the server answered and refused
//	                (ERR ...), or the response was well-framed nonsense.
//	                Retrying the same bytes yields the same refusal.
//	ClassNotFound   the authoritative "cell absent" answer (NF).
//	ClassStaleRing  cluster-level: the caller's ring view no longer
//	                matches a live quorum (more nodes unreachable than
//	                the replication factor tolerates). Retrying on this
//	                client cannot help; the cluster must be repaired or
//	                the client rebuilt against the new membership.

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"time"

	"repro/internal/assoc"
)

// Class is the retry-relevant classification of a client error.
type Class int

const (
	// ClassFatal is the default for errors that will not heal on retry.
	ClassFatal Class = iota
	ClassRetryable
	ClassNotFound
	ClassStaleRing
)

func (c Class) String() string {
	switch c {
	case ClassRetryable:
		return "retryable"
	case ClassNotFound:
		return "not-found"
	case ClassStaleRing:
		return "stale-ring"
	default:
		return "fatal"
	}
}

// ErrStaleRing marks cluster operations whose ring view lost its
// quorum; see ClassStaleRing. Defined here, beside the taxonomy, so
// Classify needs no knowledge of the cluster package.
var ErrStaleRing = errors.New("tripled: ring view stale (live nodes below quorum)")

// BadKeyError reports a row or column key that would corrupt the one
// mutation line the store round-trips through — the request, the WAL
// record and the WriteLog snapshot all frame a cell as one
// tab-separated line, so a key holding a tab, newline, or carriage
// return would silently shift fields on replay. It classifies fatal:
// the same key is refused on every retry.
type BadKeyError struct{ Key string }

func (e *BadKeyError) Error() string {
	return fmt.Sprintf("tripled: key %q contains a tab, newline, or carriage return", e.Key)
}

// validateKey rejects keys that cannot survive the line formats.
func validateKey(k string) error {
	for i := 0; i < len(k); i++ {
		switch k[i] {
		case '\t', '\n', '\r':
			return &BadKeyError{Key: k}
		}
	}
	return nil
}

// BadValueError reports a string value the line formats cannot carry
// whole: every format frames a cell as one line, so a value holding a
// newline splits its record in two (the second half then parses as a
// forged record on replay), and a carriage return at its end is eaten
// by the line scanner — a silent truncation. Tabs are fine: the value
// is the last field of its line. Like BadKeyError it classifies fatal.
type BadValueError struct{ Value string }

func (e *BadValueError) Error() string {
	return fmt.Sprintf("tripled: value %q contains a newline or carriage return", e.Value)
}

// validateValue rejects string values that cannot survive the line
// formats; a numeric value renders as digits and always can.
func validateValue(v assoc.Value) error {
	if v.Numeric {
		return nil
	}
	for i := 0; i < len(v.Str); i++ {
		if v.Str[i] == '\n' || v.Str[i] == '\r' {
			return &BadValueError{Value: v.Str}
		}
	}
	return nil
}

// TransportError wraps any error produced by the connection itself —
// dialing, deadlines, writes into a dead socket, reads of a truncated
// stream. It classifies as retryable.
type TransportError struct {
	Op  string // "dial", "send", "recv"
	Err error
}

func (e *TransportError) Error() string { return fmt.Sprintf("tripled: %s: %v", e.Op, e.Err) }
func (e *TransportError) Unwrap() error { return e.Err }

// Timeout reports whether the underlying failure was a deadline.
func (e *TransportError) Timeout() bool {
	var ne net.Error
	return errors.As(e.Err, &ne) && ne.Timeout()
}

// Classify maps any error surfaced by a Client (or the cluster client
// built on it) to its Class.
func Classify(err error) Class {
	switch {
	case err == nil:
		return ClassFatal // callers should not classify success
	case errors.Is(err, ErrNotFound):
		return ClassNotFound
	case errors.Is(err, ErrStaleRing):
		return ClassStaleRing
	}
	var te *TransportError
	if errors.As(err, &te) {
		return ClassRetryable
	}
	// Raw transport failures that escaped wrapping (historical call
	// sites, os errors bubbling through helpers) still classify by
	// shape rather than defaulting to fatal.
	var ne net.Error
	if errors.As(err, &ne) || errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, net.ErrClosed) {
		return ClassRetryable
	}
	return ClassFatal
}

// Retryable reports whether err is worth retrying (on this connection
// after a redial, or on another replica).
func Retryable(err error) bool { return Classify(err) == ClassRetryable }

// Retry is a bounded, jittered exponential backoff policy: attempt i
// (0-based) sleeps a uniformly random duration in [0, min(Max,
// Base<<i)] before running — AWS-style "full jitter", which spreads
// synchronized retry storms without ever waiting longer than Max.
type Retry struct {
	Attempts int           // total tries, including the first (>= 1)
	Base     time.Duration // backoff scale for attempt 1
	Max      time.Duration // backoff ceiling
}

// defaultRetry is the cluster transport's policy: three tries spread
// over at most ~worst-case 25+50 ms of sleep — enough to ride out a
// server restart's accept gap without turning a dead node into a
// multi-second stall per operation.
func defaultRetry() Retry {
	return Retry{Attempts: 3, Base: 25 * time.Millisecond, Max: 250 * time.Millisecond}
}

// norm returns the policy with zero values defaulted.
func (r Retry) norm() Retry {
	d := defaultRetry()
	if r.Attempts < 1 {
		r.Attempts = d.Attempts
	}
	if r.Base <= 0 {
		r.Base = d.Base
	}
	if r.Max <= 0 {
		r.Max = d.Max
	}
	return r
}

// backoff returns the sleep before attempt (1-based attempt numbers;
// attempt 0 or 1 never sleeps). rng may be nil for the global source.
func (r Retry) backoff(attempt int, rng *rand.Rand) time.Duration {
	if attempt <= 1 {
		return 0
	}
	r = r.norm()
	ceil := r.Base << (attempt - 2)
	if ceil > r.Max || ceil <= 0 {
		ceil = r.Max
	}
	if rng == nil {
		return time.Duration(rand.Int63n(int64(ceil) + 1))
	}
	return time.Duration(rng.Int63n(int64(ceil) + 1))
}

// Do runs op up to r.Attempts times, sleeping the jittered backoff
// between tries, until op succeeds or returns a non-retryable error.
// The last error is returned.
func (r Retry) Do(rng *rand.Rand, op func() error) error {
	r = r.norm()
	var err error
	for attempt := 1; attempt <= r.Attempts; attempt++ {
		if d := r.backoff(attempt, rng); d > 0 {
			time.Sleep(d)
		}
		if err = op(); err == nil || !Retryable(err) {
			return err
		}
	}
	return err
}
