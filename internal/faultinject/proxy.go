// Package faultinject is the tripled service's fault harness. A Proxy
// sits between a client and one server and injects the failure modes a
// real cluster must survive — refused connections, added latency,
// silent blackholes, connections reset mid-request, and reads
// throttled to a trickle. A Fleet serves N in-process nodes, each
// optionally durable and behind a Proxy, and restarts one on its own
// address: the scenario runner, cmd/tripled-load and the store tests
// stand their stores up and place their faults through it. The proxy's
// own unit tests prove each mode manifests on the wire.
//
// The proxy is mode-switchable at runtime (atomics, safe from any
// goroutine) and deterministic where it matters: the *AfterBytes
// triggers fire on exact client→server byte counts, so a deterministic
// workload is cut at a deterministic point — how the store scenarios
// place their faults without racing the pipeline.
package faultinject

import (
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Mode is the proxy's current fault behavior.
type Mode int32

const (
	// Forward relays traffic untouched.
	Forward Mode = iota
	// Drop closes new connections immediately on accept and existing
	// connections at their next transferred chunk (orderly FIN): the
	// "server process gone, port closed" failure.
	Drop
	// Delay relays traffic with a fixed added latency per
	// client→server chunk (see SetDelay): the congested-network
	// failure.
	Delay
	// Blackhole accepts and then forwards nothing in either direction
	// — bytes written by either side vanish: the partitioned-but-
	// connected failure that only deadlines can detect.
	Blackhole
	// SlowRead relays server→client traffic at a throttled trickle
	// (see SetSlowRead): the pathological-slow-peer failure.
	SlowRead
	// Reset tears connections down with an RST (SO_LINGER 0) on accept
	// and at the next chunk of existing connections: the
	// crashed-mid-request failure.
	Reset
)

var modeNames = [...]string{"forward", "drop", "delay", "blackhole", "slow-read", "reset"}

func (m Mode) String() string {
	if m < 0 || int(m) >= len(modeNames) {
		return fmt.Sprintf("mode(%d)", int32(m))
	}
	return modeNames[m]
}

// ParseMode maps the CLI spelling of a mode ("blackhole", "slow-read",
// ...) to its value.
func ParseMode(s string) (Mode, error) {
	if i := slices.Index(modeNames[:], s); i >= 0 {
		return Mode(i), nil
	}
	return Forward, fmt.Errorf("faultinject: unknown mode %q", s)
}

// Proxy is one listener relaying to one upstream target.
type Proxy struct {
	ln     net.Listener
	target string

	mode         atomic.Int32
	delayNs      atomic.Int64 // Delay mode: per-chunk added latency
	slowChunk    atomic.Int64 // SlowRead mode: bytes per tick
	slowTickNs   atomic.Int64
	resetAfter   atomic.Int64 // client→server byte threshold; 0 = off
	bholeAfter   atomic.Int64 // client→server byte threshold; 0 = off
	triggerAfter atomic.Int64 // client→server byte threshold; 0 = off
	triggerFn    func()       // under mu; fired once at triggerAfter
	upBytes      atomic.Int64 // client→server bytes forwarded so far

	mu     sync.Mutex
	conns  map[net.Conn]struct{} // client-side conns, closed by Close
	closed bool
	wg     sync.WaitGroup
}

// New starts a proxy on a loopback ephemeral port relaying to target.
func New(target string) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &Proxy{ln: ln, target: target, conns: make(map[net.Conn]struct{})}
	p.slowChunk.Store(64)
	p.slowTickNs.Store(int64(10 * time.Millisecond))
	p.delayNs.Store(int64(20 * time.Millisecond))
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr is the address clients dial instead of the real server.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// SetMode switches the fault behavior; existing connections notice at
// their next transferred chunk.
func (p *Proxy) SetMode(m Mode) { p.mode.Store(int32(m)) }

// Mode returns the current fault behavior.
func (p *Proxy) Mode() Mode { return Mode(p.mode.Load()) }

// SetDelay sets Delay mode's per-chunk added latency.
func (p *Proxy) SetDelay(d time.Duration) { p.delayNs.Store(int64(d)) }

// SetSlowRead sets SlowRead mode's trickle: chunk bytes per tick.
func (p *Proxy) SetSlowRead(chunk int, tick time.Duration) {
	if chunk < 1 {
		chunk = 1
	}
	p.slowChunk.Store(int64(chunk))
	p.slowTickNs.Store(int64(tick))
}

// ResetAfterBytes arms a one-shot trigger: once n client→server bytes
// have been forwarded in total, the connection carrying the crossing
// byte is reset (RST) — the reset-mid-BATCH fault. 0 disarms.
func (p *Proxy) ResetAfterBytes(n int64) { p.resetAfter.Store(n) }

// BlackholeAfterBytes arms a trigger: once n client→server bytes have
// been forwarded in total, the proxy flips itself to Blackhole — the
// deterministic lose-a-replica-mid-run fault. 0 disarms.
func (p *Proxy) BlackholeAfterBytes(n int64) { p.bholeAfter.Store(n) }

// TriggerAfterBytes arms a one-shot callback: once n client→server
// bytes have been forwarded in total, fn runs (in its own goroutine,
// after the crossing chunk was forwarded). It is the generic
// deterministic fault hook — the crash-recovery scenario uses it to
// restart a durable node mid-ingest at an exact byte offset. n <= 0
// disarms.
func (p *Proxy) TriggerAfterBytes(n int64, fn func()) {
	p.mu.Lock()
	p.triggerFn = fn
	p.mu.Unlock()
	p.triggerAfter.Store(n)
}

// ForwardedBytes reports total client→server bytes forwarded.
func (p *Proxy) ForwardedBytes() int64 { return p.upBytes.Load() }

// Close stops the listener and severs every connection.
func (p *Proxy) Close() error {
	p.mu.Lock()
	p.closed = true
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	err := p.ln.Close()
	p.wg.Wait()
	return err
}

func (p *Proxy) track(c net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		c.Close()
		return false
	}
	p.conns[c] = struct{}{}
	return true
}

func (p *Proxy) untrack(c net.Conn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		client, err := p.ln.Accept()
		if err != nil {
			return
		}
		switch p.Mode() {
		case Drop:
			client.Close()
			continue
		case Reset:
			rstClose(client)
			continue
		}
		if !p.track(client) {
			return
		}
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			defer p.untrack(client)
			p.relay(client)
		}()
	}
}

// rstClose closes with SO_LINGER 0, so the peer sees a reset, not an
// orderly FIN — mid-request this is indistinguishable from a crash.
func rstClose(c net.Conn) {
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetLinger(0)
	}
	c.Close()
}

// relay runs one proxied connection: upstream dial, then one copier
// per direction, each applying the current fault mode chunk by chunk.
func (p *Proxy) relay(client net.Conn) {
	defer client.Close()
	server, err := net.DialTimeout("tcp", p.target, 2*time.Second)
	if err != nil {
		return
	}
	defer server.Close()
	if !p.track(server) {
		return
	}
	defer p.untrack(server)

	var once sync.Once
	kill := func(reset bool) {
		once.Do(func() {
			if reset {
				rstClose(client)
				rstClose(server)
			} else {
				client.Close()
				server.Close()
			}
		})
	}

	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); p.copyChunks(server, client, true, kill) }()
	go func() { defer wg.Done(); p.copyChunks(client, server, false, kill) }()
	wg.Wait()
	kill(false)
}

// copyChunks relays src→dst until either side dies, consulting the
// fault mode before forwarding each chunk. up marks the
// client→server direction, which carries the byte-count triggers and
// Delay's latency; SlowRead throttles the other direction.
func (p *Proxy) copyChunks(dst, src net.Conn, up bool, kill func(reset bool)) {
	buf := make([]byte, 4096)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			switch p.Mode() {
			case Drop:
				kill(false)
				return
			case Reset:
				kill(true)
				return
			case Blackhole:
				// Swallow the bytes: the writer believes they were sent.
				if !p.sleepUntilUnblackholed(src) {
					return
				}
				continue
			case Delay:
				if up {
					time.Sleep(time.Duration(p.delayNs.Load()))
				}
			case SlowRead:
				if !up {
					if !p.trickle(dst, buf[:n]) {
						kill(false)
						return
					}
					continue
				}
			}
			if up {
				total := p.upBytes.Add(int64(n))
				if th := p.resetAfter.Load(); th > 0 && total >= th {
					// Forward the bytes up to the threshold, then crash the
					// connection mid-stream.
					if keep := int(th - (total - int64(n))); keep > 0 && keep < n {
						dst.Write(buf[:keep])
					}
					kill(true)
					return
				}
				if th := p.bholeAfter.Load(); th > 0 && total >= th {
					dst.Write(buf[:n])
					p.SetMode(Blackhole)
					continue
				}
				if th := p.triggerAfter.Load(); th > 0 && total >= th && p.triggerAfter.CompareAndSwap(th, 0) {
					// Forward the crossing chunk first, so the upstream holds
					// a genuinely torn mid-request state when fn crashes it.
					dst.Write(buf[:n])
					p.mu.Lock()
					fn := p.triggerFn
					p.mu.Unlock()
					if fn != nil {
						go fn()
					}
					continue
				}
			}
			if _, werr := dst.Write(buf[:n]); werr != nil {
				kill(false)
				return
			}
		}
		if err != nil {
			if err != io.EOF {
				kill(false)
			} else {
				// Half-close: let the other direction drain.
				if tc, ok := dst.(*net.TCPConn); ok {
					tc.CloseWrite()
				}
			}
			return
		}
	}
}

// sleepUntilUnblackholed parks a copier while Blackhole holds,
// re-checking every few milliseconds; returns false once its
// connection died.
func (p *Proxy) sleepUntilUnblackholed(src net.Conn) bool {
	for p.Mode() == Blackhole {
		time.Sleep(5 * time.Millisecond)
		// Probe liveness cheaply: a closed conn makes the next Read in
		// the caller fail immediately anyway; just stop parking once
		// the proxy is closing.
		p.mu.Lock()
		closed := p.closed
		p.mu.Unlock()
		if closed {
			return false
		}
	}
	return true
}

// trickle writes b at SlowRead's configured rate.
func (p *Proxy) trickle(dst net.Conn, b []byte) bool {
	chunk := int(p.slowChunk.Load())
	tick := time.Duration(p.slowTickNs.Load())
	for len(b) > 0 {
		n := chunk
		if n > len(b) {
			n = len(b)
		}
		if _, err := dst.Write(b[:n]); err != nil {
			return false
		}
		b = b[n:]
		if len(b) > 0 {
			time.Sleep(tick)
		}
	}
	return true
}
